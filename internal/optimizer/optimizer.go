// Package optimizer provides the "standard query optimizer of a DSPS" that
// the robust plan optimizer uses as a black box (§3): given a point in the
// parameter space, return the cheapest logical plan there. The number of
// calls into this black box is the efficiency currency of the paper's
// Figures 10–12, so a Counter wrapper tracks them.
package optimizer

import (
	"sort"

	"rld/internal/cost"
	"rld/internal/paramspace"
	"rld/internal/query"
)

// Optimizer finds the cheapest logical plan at a parameter-space point.
type Optimizer interface {
	// Best returns the optimal plan and its cost at pnt.
	Best(pnt paramspace.Point) (query.Plan, float64)
	// Cost evaluates a specific plan at pnt.
	Cost(p query.Plan, pnt paramspace.Point) float64
}

// Rank is the exact pipelined-ordering optimizer: for the cost model
// Σ e_i · Π_{j<i} δ_j, the classic least-rank-first result (Ibaraki &
// Kameda) orders operators by ascending rank (δ_i − 1)/e_i. Ties break on
// operator ID so plan identity is deterministic.
type Rank struct {
	Ev *cost.Evaluator
}

// NewRank returns the rank-based optimizer over ev.
func NewRank(ev *cost.Evaluator) *Rank { return &Rank{Ev: ev} }

// Best implements Optimizer.
func (r *Rank) Best(pnt paramspace.Point) (query.Plan, float64) {
	n := r.Ev.Query().NumOps()
	p := query.IdentityPlan(n)
	ranks := make([]float64, n)
	for op := 0; op < n; op++ {
		e := r.Ev.UnitCost(op, pnt)
		if e <= 0 {
			e = 1e-12
		}
		ranks[op] = (r.Ev.Sel(op, pnt) - 1) / e
	}
	sort.SliceStable(p, func(i, j int) bool {
		if ranks[p[i]] != ranks[p[j]] {
			return ranks[p[i]] < ranks[p[j]]
		}
		return p[i] < p[j]
	})
	return p, r.Ev.PlanCost(p, pnt)
}

// Cost implements Optimizer.
func (r *Rank) Cost(p query.Plan, pnt paramspace.Point) float64 {
	return r.Ev.PlanCost(p, pnt)
}

// Exhaustive enumerates all n! orderings — the reference implementation used
// to cross-validate Rank in tests and to serve queries whose cost model an
// exact rank argument does not cover. It is exponential; keep n ≤ 8 hot.
type Exhaustive struct {
	Ev *cost.Evaluator
}

// Best implements Optimizer.
func (e *Exhaustive) Best(pnt paramspace.Point) (query.Plan, float64) {
	n := e.Ev.Query().NumOps()
	var best query.Plan
	bestCost := 0.0
	for _, p := range query.Permutations(n) {
		c := e.Ev.PlanCost(p, pnt)
		if best == nil || c < bestCost-1e-15 {
			best, bestCost = p, c
		}
	}
	return best, bestCost
}

// Cost implements Optimizer.
func (e *Exhaustive) Cost(p query.Plan, pnt paramspace.Point) float64 {
	return e.Ev.PlanCost(p, pnt)
}

// Counter wraps an Optimizer and counts Best invocations — the paper's
// "number of optimization calls". A per-point memo avoids double-charging
// repeated calls at identical grid values, matching how a real system would
// cache optimizer results.
type Counter struct {
	Inner Optimizer
	// Calls is the number of distinct optimizer invocations.
	Calls int
	// Budget, when positive, caps Calls; Best returns ok=false beyond it.
	Budget int

	memo map[string]memoEntry
}

type memoEntry struct {
	plan query.Plan
	cost float64
}

// NewCounter wraps inner with call counting (no budget).
func NewCounter(inner Optimizer) *Counter {
	return &Counter{Inner: inner, memo: make(map[string]memoEntry)}
}

// NewBudgeted wraps inner with a hard call budget (Figure 11's x-axis).
func NewBudgeted(inner Optimizer, budget int) *Counter {
	c := NewCounter(inner)
	c.Budget = budget
	return c
}

// key renders a point canonically for memoization.
func key(pnt paramspace.Point) string {
	b := make([]byte, 0, len(pnt)*9)
	for _, v := range pnt {
		b = appendFloat(b, v)
	}
	return string(b)
}

func appendFloat(b []byte, v float64) []byte {
	// Fixed 6-decimal rendering is enough: grid values are well separated.
	iv := int64(v * 1e6)
	for i := 0; i < 8; i++ {
		b = append(b, byte(iv>>(8*i)))
	}
	return append(b, ';')
}

// Best returns the optimal plan at pnt, counting the call unless memoized.
// ok is false when the budget is exhausted.
func (c *Counter) Best(pnt paramspace.Point) (plan query.Plan, planCost float64, ok bool) {
	k := key(pnt)
	if e, hit := c.memo[k]; hit {
		return e.plan, e.cost, true
	}
	if c.Budget > 0 && c.Calls >= c.Budget {
		return nil, 0, false
	}
	c.Calls++
	p, pc := c.Inner.Best(pnt)
	c.memo[k] = memoEntry{plan: p, cost: pc}
	return p, pc, true
}

// Cost evaluates a plan without consuming budget (plan cost re-evaluation is
// cheap relative to optimization; the paper charges only optimizer calls).
func (c *Counter) Cost(p query.Plan, pnt paramspace.Point) float64 {
	return c.Inner.Cost(p, pnt)
}

// Reset clears the counter and memo (budget is retained).
func (c *Counter) Reset() {
	c.Calls = 0
	c.memo = make(map[string]memoEntry)
}
