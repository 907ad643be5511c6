// Package physical implements robust physical plan generation (§5): mapping
// every query operator to one machine so that the placement supports as much
// of the robust logical solution as possible (Definition 3). It provides the
// LLF list scheduler, the polynomial GreedyPhy heuristic (Algorithm 4), the
// optimal branch-and-bound OptPrune (Algorithm 5) bounded by GreedyPhy's
// score, and an exhaustive baseline for the Figure 13/14 comparisons.
package physical

import (
	"fmt"
	"sort"

	"rld/internal/cluster"
	"rld/internal/cost"
	"rld/internal/query"
	"rld/internal/robust"
)

// LogicalPlan is the physical planner's view of one robust logical plan: its
// ordering, its occurrence weight (§5.2), and its worst-case per-operator
// loads — evaluated at the top-right corner of each of its robust regions,
// where the monotone cost model peaks.
type LogicalPlan struct {
	Plan query.Plan
	// Weight is the occurrence-probability mass of the plan's robust
	// region.
	Weight float64
	// Area is the robust region size in grid points (Figure 14's
	// space-coverage numerator).
	Area int
	// Loads[op] is the worst-case load of operator op under this plan.
	Loads []float64
}

// FromRobust converts a robust logical solution into planner inputs,
// assigning weights from the occurrence model if not already assigned.
func FromRobust(res *robust.Result, ev *cost.Evaluator) []LogicalPlan {
	out := make([]LogicalPlan, 0, res.NumPlans())
	nOps := len(ev.Query().Ops)
	for _, rp := range res.AllPlans() {
		lp := LogicalPlan{
			Plan:   rp.Plan.Clone(),
			Weight: rp.Weight,
			Area:   rp.Area(),
			Loads:  make([]float64, nOps),
		}
		for _, reg := range rp.Regions {
			loads := ev.OpLoads(rp.Plan, res.Space.At(reg.Hi))
			for op, l := range loads {
				if l > lp.Loads[op] {
					lp.Loads[op] = l
				}
			}
		}
		out = append(out, lp)
	}
	return out
}

// Assignment maps operator ID → node ID; -1 marks an unplaced operator.
type Assignment []int

// NewAssignment returns an all-unplaced assignment for n operators.
func NewAssignment(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = -1
	}
	return a
}

// Clone copies a.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// Complete reports whether every operator is placed.
func (a Assignment) Complete() bool {
	for _, n := range a {
		if n < 0 {
			return false
		}
	}
	return true
}

// NodeOps returns the operator IDs placed on each node (Def. 3's OP_i).
func (a Assignment) NodeOps(nNodes int) [][]int {
	out := make([][]int, nNodes)
	for op, n := range a {
		if n >= 0 && n < nNodes {
			out[n] = append(out[n], op)
		}
	}
	return out
}

// NodeLoads sums the given per-operator loads per node.
func (a Assignment) NodeLoads(loads []float64, nNodes int) []float64 {
	out := make([]float64, nNodes)
	for op, n := range a {
		if n >= 0 && n < nNodes && op < len(loads) {
			out[n] += loads[op]
		}
	}
	return out
}

// Supports reports whether the assignment supports logical plan lp on the
// cluster: on every node, the summed worst-case loads of that node's
// operators under lp stay within capacity (Def. 3 / Figure 4).
func (a Assignment) Supports(lp LogicalPlan, c *cluster.Cluster) bool {
	nl := a.NodeLoads(lp.Loads, c.N())
	for i, l := range nl {
		if l > c.Nodes[i].Capacity+1e-9 {
			return false
		}
	}
	return true
}

// Plan is a robust physical plan: the operator placement plus the subset of
// the logical solution it supports and that subset's total weight and area.
type Plan struct {
	Assign Assignment
	// Supported indexes into the planner's logical plan list.
	Supported []int
	// Score is the total weight of supported logical plans (§5.2).
	Score float64
	// Area is the total robust-region area (grid points) of supported
	// plans — Figure 14's coverage numerator.
	Area int
	// MaxNodeLoad is the hottest node's load under the per-operator
	// maximum loads of the supported plans — the balance tie-breaker
	// among equal-score placements (a balanced layout keeps runtime
	// queues shortest).
	MaxNodeLoad float64
}

func (p *Plan) String() string {
	return fmt.Sprintf("physical plan: %d ops, %d plans supported, score %.3f", len(p.Assign), len(p.Supported), p.Score)
}

// evaluate fills Supported/Score/Area/MaxNodeLoad for a complete assignment.
func evaluate(a Assignment, plans []LogicalPlan, c *cluster.Cluster) *Plan {
	p := &Plan{Assign: a.Clone()}
	var sub []LogicalPlan
	for i, lp := range plans {
		if a.Supports(lp, c) {
			p.Supported = append(p.Supported, i)
			p.Score += lp.Weight
			p.Area += lp.Area
			sub = append(sub, lp)
		}
	}
	if len(sub) == 0 {
		sub = plans
	}
	nOps := len(a)
	nl := a.NodeLoads(maxLoads(sub, nOps), c.N())
	for _, l := range nl {
		if l > p.MaxNodeLoad {
			p.MaxNodeLoad = l
		}
	}
	return p
}

// Better reports whether p should replace q as the planner's choice:
// higher score, then larger area, then better balance (lower MaxNodeLoad).
func (p *Plan) Better(q *Plan) bool {
	if q == nil {
		return true
	}
	const eps = 1e-12
	if p.Score > q.Score+eps {
		return true
	}
	if p.Score < q.Score-eps {
		return false
	}
	if p.Area != q.Area {
		return p.Area > q.Area
	}
	return p.MaxNodeLoad < q.MaxNodeLoad-eps
}

// LLF is the Largest-Load-First list scheduler (the paper's Longest
// Processing Time reference [9]): operators in descending load order, each
// to the least-loaded node. Returns ok=false if some operator does not fit
// within any node's remaining capacity.
func LLF(loads []float64, c *cluster.Cluster) (Assignment, bool) {
	type opLoad struct {
		op   int
		load float64
	}
	ops := make([]opLoad, len(loads))
	for i, l := range loads {
		ops[i] = opLoad{op: i, load: l}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].load > ops[j].load })
	nodeLoad := make([]float64, c.N())
	a := NewAssignment(len(loads))
	for _, ol := range ops {
		best := -1
		for n := 0; n < c.N(); n++ {
			if nodeLoad[n]+ol.load > c.Nodes[n].Capacity+1e-9 {
				continue
			}
			if best == -1 || nodeLoad[n] < nodeLoad[best] {
				best = n
			}
		}
		if best == -1 {
			return nil, false
		}
		a[ol.op] = best
		nodeLoad[best] += ol.load
	}
	return a, true
}

// maxLoads returns the per-operator elementwise maximum across plans —
// Algorithm 4's lpmax ("the cost of each operator is equal to its maximum
// cost for all logical plans lp ∈ LPi").
func maxLoads(plans []LogicalPlan, nOps int) []float64 {
	out := make([]float64, nOps)
	for _, lp := range plans {
		for op, l := range lp.Loads {
			if l > out[op] {
				out[op] = l
			}
		}
	}
	return out
}
