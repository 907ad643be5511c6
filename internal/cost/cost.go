// Package cost evaluates logical plan costs over the parameter space. The
// model is the classic pipelined-filter form underlying §2.3: for a plan p
// (an operator ordering) at a parameter-space point pnt,
//
//	cost(p, pnt) = Λ(pnt) · Σ_i e_{p(i)}(pnt) · Π_{j<i} δ_{p(j)}(pnt)
//
// where δ_k is operator k's selectivity (a dimension value if parameterized,
// else its estimate), e_k = c_k · ρ_{S_k} scales the operator's unit cost by
// its probe stream's relative rate, and Λ is the total input rate. The
// surface is multilinear and monotonically increasing in every dimension —
// the two properties the paper's Principles 1 and 2 rely on. For a 2-D
// selectivity space it reduces exactly to the paper's
// c1·σi + c2·σj + c3·σi·σj + c4 form (see FitSurface).
//
// An Evaluator keeps one rate table: each stream's estimated rate and the
// dimension modeling it, in the query's stream order. Λ sums that table in
// that order, and each operator indexes it for its ρ, so a cost is a
// bit-for-bit function of the point.
package cost

import (
	"slices"

	"rld/internal/paramspace"
	"rld/internal/query"
)

// Evaluator computes plan costs and per-operator loads for one query over
// one parameter space. It is read-only and safe for concurrent use.
type Evaluator struct {
	q *query.Query
	s *paramspace.Space
	// selDim[op] is the dimension index modeling that operator's
	// selectivity, or -1.
	selDim []int
	// rates[i] is stream q.Streams[i]'s estimated rate (0 if it has none)
	// and the dimension modeling it: the one rate table.
	rates []streamRate
	// opRate[op] indexes rates with the stream op reads, or is -1.
	opRate []int
}

// streamRate is one stream's estimated rate and the dimension modeling it
// (-1 if none).
type streamRate struct {
	base float64
	dim  int
}

// NewEvaluator indexes the space's dimensions against the query.
func NewEvaluator(q *query.Query, s *paramspace.Space) *Evaluator {
	e := &Evaluator{q: q, s: s, selDim: make([]int, len(q.Ops)), opRate: make([]int, len(q.Ops))}
	for _, name := range q.Streams {
		e.rates = append(e.rates, streamRate{base: q.Rates[name], dim: -1})
	}
	for op, o := range q.Ops {
		e.selDim[op] = -1
		e.opRate[op] = slices.Index(q.Streams, o.Stream)
	}
	for i, d := range s.Dims {
		switch d.Kind {
		case paramspace.Selectivity:
			if d.Op >= 0 && d.Op < len(e.selDim) {
				e.selDim[d.Op] = i
			}
		case paramspace.Rate:
			if j := slices.Index(q.Streams, d.Stream); j >= 0 {
				e.rates[j].dim = i
			}
		}
	}
	return e
}

// Query returns the underlying query.
func (e *Evaluator) Query() *query.Query { return e.q }

// Space returns the underlying parameter space.
func (e *Evaluator) Space() *paramspace.Space { return e.s }

// Sel returns operator op's selectivity at pnt.
func (e *Evaluator) Sel(op int, pnt paramspace.Point) float64 {
	if i := e.selDim[op]; i >= 0 && i < len(pnt) {
		return pnt[i]
	}
	return e.q.Ops[op].Sel
}

// RateFactor returns stream s's rate relative to its estimate at pnt (1.0
// when the stream is not parameterized).
func (e *Evaluator) RateFactor(s string, pnt paramspace.Point) float64 {
	return e.rateFactor(slices.Index(e.q.Streams, s), pnt)
}

// rateFactor is RateFactor for the stream at rates[i] (1.0 for i < 0).
func (e *Evaluator) rateFactor(i int, pnt paramspace.Point) float64 {
	if i < 0 {
		return 1
	}
	r := e.rates[i]
	if r.dim < 0 || r.dim >= len(pnt) || r.base <= 0 {
		return 1
	}
	return pnt[r.dim] / r.base
}

// UnitCost returns operator op's effective per-unit cost e_k at pnt: the
// estimate scaled by the probe stream's relative rate (a faster stream makes
// its join's window denser and the probe proportionally more expensive).
func (e *Evaluator) UnitCost(op int, pnt paramspace.Point) float64 {
	return e.q.Ops[op].Cost * e.rateFactor(e.opRate[op], pnt)
}

// TotalRate returns Λ(pnt): the summed input rates with parameterized
// streams overridden by the point's values, added in the query's stream
// order.
func (e *Evaluator) TotalRate(pnt paramspace.Point) float64 {
	sum := 0.0
	for _, r := range e.rates {
		if r.dim >= 0 && r.dim < len(pnt) {
			sum += pnt[r.dim]
		} else {
			sum += r.base
		}
	}
	if sum <= 0 {
		sum = 1
	}
	return sum
}

// PlanCost returns cost(p, pnt) in cost-units per second of stream time.
func (e *Evaluator) PlanCost(p query.Plan, pnt paramspace.Point) float64 {
	lambda := e.TotalRate(pnt)
	total := 0.0
	carry := 1.0
	for _, op := range p {
		total += e.UnitCost(op, pnt) * carry
		carry *= e.Sel(op, pnt)
	}
	return lambda * total
}

// OpLoads returns each operator's load (cost-units per second) under plan p
// at pnt, indexed by operator ID. The sum of loads equals PlanCost. Loads
// are what the physical planner packs against node capacities (Def. 3).
func (e *Evaluator) OpLoads(p query.Plan, pnt paramspace.Point) []float64 {
	lambda := e.TotalRate(pnt)
	loads := make([]float64, len(e.q.Ops))
	carry := 1.0
	for _, op := range p {
		loads[op] = lambda * e.UnitCost(op, pnt) * carry
		carry *= e.Sel(op, pnt)
	}
	return loads
}

// CostFn adapts a fixed plan to a paramspace.CostFn for the weight
// machinery.
func (e *Evaluator) CostFn(p query.Plan) paramspace.CostFn {
	p = p.Clone()
	return func(pnt paramspace.Point) float64 { return e.PlanCost(p, pnt) }
}
