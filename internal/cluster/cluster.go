// Package cluster models the shared-nothing homogeneous compute cluster the
// paper assumes (§2.1): N nodes, each with a resource capacity r_i in
// cost-units per second. Network bandwidth is not modeled as a bottleneck,
// matching the paper's assumption of a high-bandwidth interconnect.
package cluster

import "fmt"

// Node is one machine.
type Node struct {
	// ID is the node index (0-based).
	ID int
	// Capacity is the resource limit r_i in cost-units/second.
	Capacity float64
}

// Cluster is a fixed set of nodes.
type Cluster struct {
	Nodes []Node
}

// NewHomogeneous builds an n-node cluster with uniform capacity.
func NewHomogeneous(n int, capacity float64) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{Nodes: make([]Node, n)}
	for i := range c.Nodes {
		c.Nodes[i] = Node{ID: i, Capacity: capacity}
	}
	return c
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.Nodes) }

// Homogeneous reports whether all nodes share one capacity.
func (c *Cluster) Homogeneous() bool {
	for _, n := range c.Nodes[1:] {
		if n.Capacity != c.Nodes[0].Capacity {
			return false
		}
	}
	return true
}

func (c *Cluster) String() string {
	if c.Homogeneous() && c.N() > 0 {
		return fmt.Sprintf("cluster{%d×%.1f}", c.N(), c.Nodes[0].Capacity)
	}
	return fmt.Sprintf("cluster{%d nodes}", c.N())
}
