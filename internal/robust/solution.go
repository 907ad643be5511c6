// Package robust implements the paper's robust logical plan generation (§4):
// the ε-robustness notions of Definitions 1–2, the weight-driven space
// partitioning WRP (Algorithm 2), the early-terminated ERP (Algorithm 3)
// with the probabilistic stopping rule of Theorems 1–2, and the exhaustive
// (ES) and random-sampling (RS) baselines of the experimental study (§6.3).
package robust

import (
	"fmt"
	"math"

	"rld/internal/cost"
	"rld/internal/paramspace"
	"rld/internal/query"
)

// Config parameterizes robust logical plan generation.
type Config struct {
	// Epsilon is the robustness threshold ε of Definition 1: a covered
	// region's plan costs at most (1+ε)× the optimum at the region's
	// top-right corner. Typical values: 0.1–0.3 (§6.3).
	Epsilon float64
	// Delta is Theorem 1's δ: the bound on the total parameter-space area
	// occupied by missed robust plans.
	Delta float64
	// Confidence is Theorem 1's ε (named differently here because the
	// paper overloads ε): the failure probability of the bound. The aging
	// threshold is c0 = (1 + Confidence^{-1/2}) / Delta.
	Confidence float64
	// MaxCalls, when positive, hard-caps optimizer calls (Figure 11's
	// x-axis). Exhausting it stops the search with partial coverage.
	MaxCalls int
	// RSPatience is the random-sampling baseline's stop rule: RS quits
	// after this many consecutive samples without a new distinct plan
	// ("a given number of optimizer calls", §6.2). Defaults to 10.
	RSPatience int
	// Seed drives the random-sampling baseline.
	Seed int64
}

// DefaultConfig returns the defaults used across the experiments:
// ε=0.2, δ=0.1, confidence 0.25 (k=2 in Chebyshev) → aging threshold 30.
func DefaultConfig() Config {
	return Config{Epsilon: 0.2, Delta: 0.1, Confidence: 0.25}
}

// AgeThreshold returns Theorem 1's c0 = (1 + Confidence^{-1/2}) / Delta,
// floored at 1.
func (c Config) AgeThreshold() int {
	conf := c.Confidence
	if conf <= 0 {
		conf = 0.25
	}
	d := c.Delta
	if d <= 0 {
		d = 0.1
	}
	c0 := (1 + 1/math.Sqrt(conf)) / d
	if c0 < 1 {
		c0 = 1
	}
	return int(math.Ceil(c0))
}

// MissProbBound returns Theorem 2's bound e^{-γ(1+Confidence^{-1/2})} on the
// probability that a robust plan with area ≥ γ·δ·|S| is missed.
func (c Config) MissProbBound(gamma float64) float64 {
	conf := c.Confidence
	if conf <= 0 {
		conf = 0.25
	}
	return math.Exp(-gamma * (1 + 1/math.Sqrt(conf)))
}

// RobustPlan is one member of a robust logical solution: a plan and the
// sub-spaces where it was certified ε-robust (its robust region, Def. 2).
type RobustPlan struct {
	Plan query.Plan
	// Regions are the certified sub-spaces (disjoint).
	Regions []paramspace.Region
	// Weight is the occurrence-probability mass of the robust region
	// (§5.2); filled by AssignWeights.
	Weight float64
}

// Area returns the number of grid points in the plan's robust region.
func (rp *RobustPlan) Area() int {
	n := 0
	for _, r := range rp.Regions {
		n += r.NumPoints()
	}
	return n
}

// Result is a robust logical solution LP: the plans, the optimizer calls
// they cost, and any space left uncovered by early termination or budget
// exhaustion.
type Result struct {
	Space *paramspace.Space
	// Plans carry certified robust regions; the regions of distinct
	// plans are disjoint.
	Plans []*RobustPlan
	// Extras are plans Algorithm 3 discovered via optimizer calls but
	// never used to certify a region (line 10 adds every distinct
	// optimal plan to LPi). Each carries the unit region of its
	// discovery point — enough for the physical planner to budget its
	// loads, and for the classifier Optimize compiles to choose it at
	// grid points no supported region covers, when it is the cheapest
	// supported plan there.
	Extras []*RobustPlan
	// Calls is the number of optimizer invocations consumed.
	Calls int
	// Assignments counts ERP's and WRP's per-point weight computations,
	// the work §4.2's conditional re-assignment rule saves (0 for the
	// other algorithms).
	Assignments int
	// Uncovered lists regions the algorithm did not certify (empty for
	// exhaustive search with no budget).
	Uncovered []paramspace.Region
	// Terminated reports whether the aging counter (Theorem 1) stopped
	// the search before the space was fully partitioned.
	Terminated bool
}

// PlanByKey returns the robust plan (certified or extra) with the given
// plan key, or nil.
func (r *Result) PlanByKey(k string) *RobustPlan {
	for _, rp := range r.Plans {
		if rp.Plan.Key() == k {
			return rp
		}
	}
	for _, rp := range r.Extras {
		if rp.Plan.Key() == k {
			return rp
		}
	}
	return nil
}

// AllPlans returns the full logical solution LPi: certified plans followed
// by extras.
func (r *Result) AllPlans() []*RobustPlan {
	out := make([]*RobustPlan, 0, len(r.Plans)+len(r.Extras))
	out = append(out, r.Plans...)
	out = append(out, r.Extras...)
	return out
}

// CoveredPoints returns the number of grid points inside certified regions.
func (r *Result) CoveredPoints() int {
	n := 0
	for _, rp := range r.Plans {
		n += rp.Area()
	}
	return n
}

// NumPlans returns the number of distinct plans in LPi (certified plus
// extras).
func (r *Result) NumPlans() int { return len(r.Plans) + len(r.Extras) }

func (r *Result) String() string {
	return fmt.Sprintf("robust solution: %d plans (%d certified), %d calls, %d/%d points covered",
		r.NumPlans(), len(r.Plans), r.Calls, r.CoveredPoints(), r.Space.NumPoints())
}

// add merges a certified (plan, region) pair into the result.
func (r *Result) add(p query.Plan, reg paramspace.Region) *RobustPlan {
	k := p.Key()
	for _, rp := range r.Plans {
		if rp.Plan.Key() == k {
			rp.Regions = append(rp.Regions, reg)
			return rp
		}
	}
	rp := &RobustPlan{Plan: p.Clone(), Regions: []paramspace.Region{reg}}
	r.Plans = append(r.Plans, rp)
	return rp
}

// AssignWeights fills each plan's occurrence-probability weight (§5.2):
// the normal-model mass of its robust region. Certified weights sum to ≤ 1;
// extras carry the (tiny, possibly overlapping) mass of their discovery
// cells.
func (r *Result) AssignWeights(m *paramspace.OccurrenceModel) {
	for _, rp := range r.AllPlans() {
		w := 0.0
		for _, reg := range rp.Regions {
			w += m.RegionProb(reg)
		}
		rp.Weight = w
	}
}

// MaxLoads returns, per operator, the maximum load the operator can incur
// under any plan in the solution anywhere in that plan's robust region. This
// is the lpmax construction GreedyPhy packs against node capacities
// (Algorithm 4, updateMax): by cost monotonicity the per-plan maximum occurs
// at the region's top-right corner.
func (r *Result) MaxLoads(ev *cost.Evaluator) []float64 {
	loads := make([]float64, len(ev.Query().Ops))
	for _, rp := range r.AllPlans() {
		for _, reg := range rp.Regions {
			pnt := r.Space.At(reg.Hi)
			for op, l := range ev.OpLoads(rp.Plan, pnt) {
				if l > loads[op] {
					loads[op] = l
				}
			}
		}
	}
	return loads
}
