package physical

import (
	"math/bits"
	"sort"

	"rld/internal/cluster"
)

// config is a feasible single-machine configuration (§5.3): a set of
// operators that can share one node while supporting at least one logical
// plan. supportMask records which plans fit capacity when the config's
// operators are co-located.
type config struct {
	ops     uint32 // bitmask over operators
	support uint64 // bitmask over logical plans
	size    int
}

// maxOpsForSearch bounds the configuration enumeration (2^n subsets).
const maxOpsForSearch = 16

// maxPlansForSearch bounds the support bitmask width.
const maxPlansForSearch = 64

// enumerateConfigs builds all feasible single-machine configurations and
// their support masks. Machines are assumed homogeneous (§5.3); capacity is
// taken from node 0.
func enumerateConfigs(plans []LogicalPlan, c *cluster.Cluster, nOps int) []config {
	if nOps > maxOpsForSearch || len(plans) > maxPlansForSearch || c.N() == 0 {
		return nil
	}
	capacity := c.Nodes[0].Capacity
	var out []config
	for mask := uint32(1); mask < 1<<nOps; mask++ {
		var support uint64
		for pi, lp := range plans {
			sum := 0.0
			for op := 0; op < nOps; op++ {
				if mask&(1<<op) != 0 {
					sum += lp.Loads[op]
				}
			}
			if sum <= capacity+1e-9 {
				support |= 1 << pi
			}
		}
		if support != 0 {
			out = append(out, config{ops: mask, support: support, size: bits.OnesCount32(mask)})
		}
	}
	// Algorithm 5 line 5: sort by operator count descending so the DFS
	// tries dense configurations first and completes plans in few nodes.
	sort.SliceStable(out, func(i, j int) bool { return out[i].size > out[j].size })
	return out
}

// maskWeight sums plan weights selected by the support mask.
func maskWeight(plans []LogicalPlan, mask uint64) float64 {
	w := 0.0
	for i := range plans {
		if mask&(1<<i) != 0 {
			w += plans[i].Weight
		}
	}
	return w
}

// OptPruneStats reports search effort for the bounding ablation.
type OptPruneStats struct {
	// Expanded counts DFS vertices visited.
	Expanded int
	// Pruned counts subtrees cut by the GreedyPhy bound.
	Pruned int
}

// OptPrune is Algorithm 5: a depth-first branch-and-bound over machine
// configurations. The score of a (partial) physical plan is the total weight
// of logical plans all its configurations support; adding a configuration
// never increases it (Lemma 1), so any partial plan scoring below the
// GreedyPhy bound is safely pruned (Theorem 3) and the search returns an
// optimal robust physical plan. Machine symmetry is broken by requiring each
// new configuration to contain the lowest-indexed unplaced operator.
func OptPrune(plans []LogicalPlan, c *cluster.Cluster, nOps int) *Plan {
	p, _ := OptPruneWithStats(plans, c, nOps, true)
	return p
}

// OptPruneWithStats runs OptPrune and reports search-effort counters.
func OptPruneWithStats(plans []LogicalPlan, c *cluster.Cluster, nOps int, useBound bool) (*Plan, OptPruneStats) {
	var stats OptPruneStats
	configs := enumerateConfigs(plans, c, nOps)
	if configs == nil {
		// Out-of-range inputs: fall back to the greedy heuristic.
		return GreedyPhy(plans, c, nOps), stats
	}
	greedy := GreedyPhy(plans, c, nOps)
	bound := 0.0
	if useBound && greedy != nil {
		bound = greedy.Score
	}
	fullMask := uint32(1<<nOps) - 1
	allPlans := uint64(1<<len(plans)) - 1

	// byLowestOp[op] lists configs containing operator op (dense first).
	byLowestOp := make([][]config, nOps)
	for _, cf := range configs {
		low := bits.TrailingZeros32(cf.ops)
		byLowestOp[low] = append(byLowestOp[low], cf)
	}

	var best *Plan
	chosen := make([]config, 0, c.N())

	var dfs func(placed uint32, support uint64) bool
	dfs = func(placed uint32, support uint64) bool {
		stats.Expanded++
		if placed == fullMask {
			pl := buildPlan(chosen, plans, c, nOps)
			if pl.Better(best) {
				best = pl
			}
			// Early exit: a complete plan supporting every logical plan
			// cannot be beaten on score (Algorithm 5 lines 12–13); the
			// final greedy comparison below restores balance among
			// equal-score layouts.
			return support == allPlans
		}
		if len(chosen) >= c.N() {
			return false // out of machines
		}
		low := bits.TrailingZeros32(^placed & fullMask)
		for _, cf := range byLowestOp[low] {
			if cf.ops&placed != 0 {
				continue // conflicts with already-placed operators
			}
			ns := support & cf.support
			if useBound && maskWeight(plans, ns) < bound-1e-12 {
				stats.Pruned++
				continue // Theorem 3: cannot beat the greedy bound
			}
			chosen = append(chosen, cf)
			done := dfs(placed|cf.ops, ns)
			chosen = chosen[:len(chosen)-1]
			if done {
				return true
			}
		}
		return false
	}
	dfs(0, allPlans)

	// Prefer the greedy (LLF-balanced) layout whenever it matches the
	// search's score: equal coverage with shorter runtime queues.
	if greedy != nil && greedy.Better(best) {
		return greedy, stats
	}
	if best == nil {
		return greedy, stats
	}
	return best, stats
}

// buildPlan converts chosen configurations (one per machine, in order) to a
// scored Plan.
func buildPlan(chosen []config, plans []LogicalPlan, c *cluster.Cluster, nOps int) *Plan {
	a := NewAssignment(nOps)
	for node, cf := range chosen {
		for op := 0; op < nOps; op++ {
			if cf.ops&(1<<op) != 0 {
				a[op] = node
			}
		}
	}
	return evaluate(a, plans, c)
}
