package physical

import "rld/internal/cluster"

// GreedyPhy is Algorithm 4: repeatedly try to place lpmax (the per-operator
// max-load profile over the remaining logical plans) with LLF; on failure,
// drop the least-weighted logical plan (ties broken toward the plan with
// more heavy operators, per getMinWeightPlanWithMaxOp) and retry. Runs in
// O(k·n log n) for k plans.
//
// The returned plan's Supported set is computed against the full input list,
// so plans dropped during the greedy loop still count if the final placement
// happens to accommodate them.
func GreedyPhy(plans []LogicalPlan, c *cluster.Cluster, nOps int) *Plan {
	if len(plans) == 0 {
		a, ok := LLF(make([]float64, nOps), c)
		if !ok {
			return nil
		}
		return evaluate(a, plans, c)
	}
	remaining := make([]int, len(plans))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		sub := make([]LogicalPlan, len(remaining))
		for i, idx := range remaining {
			sub[i] = plans[idx]
		}
		lpmax := maxLoads(sub, nOps)
		if a, ok := LLF(lpmax, c); ok {
			return evaluate(a, plans, c)
		}
		// Drop the least-weighted plan; tie-break toward the plan whose
		// maximum single-operator load is largest (it constrains packing
		// the most).
		drop := 0
		for i := 1; i < len(remaining); i++ {
			wi, w0 := plans[remaining[i]].Weight, plans[remaining[drop]].Weight
			if wi < w0 || (wi == w0 && maxOpLoad(plans[remaining[i]]) > maxOpLoad(plans[remaining[drop]])) {
				drop = i
			}
		}
		remaining = append(remaining[:drop], remaining[drop+1:]...)
	}
	// Even single plans failed under their own max-load profiles; as a
	// last resort try the highest-weight plan alone so the executor still
	// gets a layout, else give up.
	bestIdx := 0
	for i := range plans {
		if plans[i].Weight > plans[bestIdx].Weight {
			bestIdx = i
		}
	}
	if a, ok := LLF(plans[bestIdx].Loads, c); ok {
		return evaluate(a, plans, c)
	}
	return nil
}

func maxOpLoad(lp LogicalPlan) float64 {
	m := 0.0
	for _, l := range lp.Loads {
		if l > m {
			m = l
		}
	}
	return m
}
