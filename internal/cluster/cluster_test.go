package cluster

import "testing"

func TestNewHomogeneous(t *testing.T) {
	c := NewHomogeneous(4, 25)
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	for i, n := range c.Nodes {
		if n.ID != i || n.Capacity != 25 {
			t.Fatalf("node %d = %+v", i, n)
		}
	}
	if !c.Homogeneous() {
		t.Fatal("should be homogeneous")
	}
}

func TestZeroNodeClamp(t *testing.T) {
	if NewHomogeneous(0, 5).N() != 1 {
		t.Fatal("must clamp to 1 node")
	}
	if NewHomogeneous(-3, 5).N() != 1 {
		t.Fatal("negative must clamp to 1 node")
	}
}

func TestHeterogeneousDetection(t *testing.T) {
	c := &Cluster{Nodes: []Node{{ID: 0, Capacity: 1}, {ID: 1, Capacity: 2}}}
	if c.Homogeneous() {
		t.Fatal("heterogeneous misdetected")
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}

func TestStringHomogeneous(t *testing.T) {
	if NewHomogeneous(3, 10).String() == "" {
		t.Fatal("String empty")
	}
}
