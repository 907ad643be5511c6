package robust

import (
	"sort"

	"rld/internal/cost"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
)

// task is a queued sub-space plus the corner plans its parent predicted for
// it (the §4.2 conditional weight-update rule compares prediction against
// the actual corner optima).
type task struct {
	region           paramspace.Region
	predLo, predHi   query.Plan
	weightsInherited bool
}

// partitioner drives the weight-driven robust partitioning shared by WRP
// (Algorithm 2) and ERP (Algorithm 3).
type partitioner struct {
	opt   *optimizer.Counter
	ev    *cost.Evaluator
	space *paramspace.Space
	cfg   Config
	wm    *paramspace.WeightMap
	res   *Result
	// seen marks the distinct plan keys discovered by optimizer calls, and
	// found holds each one's first discovery point in discovery order
	// (Algorithm 3 line 10 adds every distinct discovered plan to LPi;
	// finish walks found, so the extras do not follow map order).
	seen  map[string]bool
	found []paramspace.GridPoint
	// misses is the aging counter of Algorithm 3.
	misses int
	// early enables Theorem 1's termination (ERP); false for WRP.
	early bool
	// midpoint switches partition-point selection to the region center
	// (the weight-ablation variant; see DESIGN.md §6).
	midpoint bool
	queue    []task
}

// WRP runs the weight-driven robust partitioning of Algorithm 2: partition
// until every sub-space is certified ε-robust (no early termination).
func WRP(opt *optimizer.Counter, ev *cost.Evaluator, cfg Config) *Result {
	p := newPartitioner(opt, ev, cfg, false, false)
	return p.run()
}

// ERP runs the early-terminated robust partitioning of Algorithm 3: WRP
// plus the aging-counter stop of Theorem 1, trading a probabilistically
// bounded sliver of coverage for far fewer optimizer calls.
func ERP(opt *optimizer.Counter, ev *cost.Evaluator, cfg Config) *Result {
	p := newPartitioner(opt, ev, cfg, true, false)
	return p.run()
}

// MidpointERP is the ablation variant that splits at region centers instead
// of weight maxima (DESIGN.md §6, "weight-driven partition-point selection
// vs midpoint splitting").
func MidpointERP(opt *optimizer.Counter, ev *cost.Evaluator, cfg Config) *Result {
	p := newPartitioner(opt, ev, cfg, true, true)
	return p.run()
}

func newPartitioner(opt *optimizer.Counter, ev *cost.Evaluator, cfg Config, early, midpoint bool) *partitioner {
	space := ev.Space()
	return &partitioner{
		opt:      opt,
		ev:       ev,
		space:    space,
		cfg:      cfg,
		wm:       paramspace.NewWeightMap(space),
		res:      &Result{Space: space},
		seen:     make(map[string]bool),
		early:    early,
		midpoint: midpoint,
	}
}

// corner invokes the counting optimizer at a grid corner and updates the
// aging counter: a distinct new plan resets it, a known plan increments it
// (Algorithm 3 lines 7–12). ok is false when the call budget is exhausted.
func (p *partitioner) corner(g paramspace.GridPoint) (query.Plan, float64, bool) {
	plan, c, ok := p.opt.Best(p.space.At(g))
	if !ok {
		return nil, 0, false
	}
	if p.seen[plan.Key()] {
		p.misses++
	} else {
		p.seen[plan.Key()] = true
		p.found = append(p.found, g.Clone())
		p.misses = 0
	}
	return plan, c, true
}

// finish adds any plan discovered by an optimizer call but never used to
// certify a region (Algorithm 3 line 10: every distinct optimal plan found
// joins LPi). Such plans become Extras carrying the unit region of their
// discovery point, so the physical planner can still budget their loads and
// the classifier compiled at Optimize time can pick them where no supported
// region covers a grid point.
func (p *partitioner) finish() {
	for _, g := range p.found {
		plan, _, ok := p.opt.Best(p.space.At(g)) // memoized: no extra call
		if !ok || p.res.PlanByKey(plan.Key()) != nil {
			continue
		}
		p.res.Extras = append(p.res.Extras, &RobustPlan{
			Plan:    plan.Clone(),
			Regions: []paramspace.Region{{Lo: g.Clone(), Hi: g.Clone()}},
		})
	}
}

// push enqueues a task keeping the queue sorted by region size descending,
// so large sub-spaces — where missing plans would occupy the most area — are
// examined first. This makes the aging counter's geometric argument
// (Theorem 1) bite as early as possible.
func (p *partitioner) push(t task) {
	p.queue = append(p.queue, t)
	sort.SliceStable(p.queue, func(i, j int) bool {
		return p.queue[i].region.NumPoints() > p.queue[j].region.NumPoints()
	})
}

func (p *partitioner) pop() task {
	t := p.queue[0]
	p.queue = p.queue[1:]
	return t
}

// abort drains the queue. On an aging-counter stop (Theorem 1) each pending
// region is certified best-effort with the plan its parent predicted for its
// bottom-left corner — Algorithm 3's contract is that the plans already in
// LPi cover all but a probabilistically-bounded sliver, so the executor
// still gets a total region→plan map. On budget exhaustion (bestEffort
// false) pending regions are reported uncovered instead.
func (p *partitioner) abort(bestEffort bool) {
	for _, t := range p.queue {
		if bestEffort && t.predLo != nil {
			p.res.add(t.predLo, t.region)
		} else {
			p.res.Uncovered = append(p.res.Uncovered, t.region)
		}
	}
	p.queue = nil
}

func (p *partitioner) run() *Result {
	full := p.space.FullRegion()
	p.push(task{region: full})
	threshold := p.cfg.AgeThreshold()

	for len(p.queue) > 0 {
		if p.early && p.misses >= threshold {
			p.res.Terminated = true
			p.abort(true)
			break
		}
		t := p.pop()
		reg := t.region

		lpLo, _, ok := p.corner(reg.Lo)
		if !ok {
			p.res.Uncovered = append(p.res.Uncovered, reg)
			p.abort(false)
			break
		}
		lpHi, costHi, ok := p.corner(reg.Hi)
		if !ok {
			p.res.Uncovered = append(p.res.Uncovered, reg)
			p.abort(false)
			break
		}

		// Definition 1 check at the sub-space scale: the bottom-left
		// optimal plan must stay within (1+ε) of the optimum at every
		// corner of the region — with costs monotone along each axis,
		// the corners bracket the interior, so this is the conservative
		// proxy for Def. 2's "at all points". (The pntHi comparison uses
		// the already-fetched optimum; other corners cost one memoized
		// optimizer call each.)
		robustHere := p.opt.Cost(lpLo, p.space.At(reg.Hi)) <= (1+p.cfg.Epsilon)*costHi
		if robustHere {
			for _, c := range reg.AllCorners() {
				if c.Equal(reg.Lo) || c.Equal(reg.Hi) {
					continue
				}
				_, optCost, okC := p.corner(c)
				if !okC {
					robustHere = false
					break
				}
				if p.opt.Cost(lpLo, p.space.At(c)) > (1+p.cfg.Epsilon)*optCost {
					robustHere = false
					break
				}
			}
		}
		if robustHere {
			p.res.add(lpLo, reg)
			continue
		}

		// Not robust: partition finer (Algorithm 2 lines 6–11).
		if reg.IsUnit() {
			// Should be unreachable (a unit region is trivially robust:
			// lpLo == lpHi); keep as a safety net.
			p.res.add(lpHi, reg)
			continue
		}

		// Conditional weight (re-)assignment (§4.2): skip when the
		// parent's prediction of this region's corner plans was right.
		predictionHeld := t.weightsInherited &&
			t.predLo != nil && t.predLo.Equal(lpLo) &&
			t.predHi != nil && t.predHi.Equal(lpHi)
		// Midpoint splitting never reads the weights, so it assigns none.
		if !predictionHeld && !p.midpoint {
			p.wm.Assign(reg, p.ev.CostFn(lpLo), p.ev.CostFn(lpHi))
			p.res.Assignments += reg.NumPoints()
		}

		var pivot paramspace.GridPoint
		if p.midpoint {
			pivot = reg.Center()
			if pivot.Equal(reg.Lo) {
				pivot = reg.Hi.Clone()
			}
		} else {
			var okMax bool
			pivot, okMax = p.wm.ArgMax(reg)
			if !okMax {
				pivot = reg.Hi.Clone()
			}
		}
		for _, sub := range reg.Split(pivot) {
			if sub.NumPoints() >= reg.NumPoints() {
				// Degenerate split (pivot at Lo): certify with the
				// better corner plan rather than loop forever.
				p.res.add(lpLo, sub)
				continue
			}
			p.push(task{
				region:           sub,
				predLo:           lpLo,
				predHi:           lpHi,
				weightsInherited: true,
			})
		}
	}
	p.finish()
	p.res.Calls = p.opt.Calls
	return p.res
}
