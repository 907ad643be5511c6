package paramspace

import "math"

// CostFn evaluates one logical plan's cost at a vector of actual statistic
// values. The weight machinery treats plans as opaque cost surfaces.
type CostFn func(Point) float64

// WeightMap assigns each grid point the partitioning weight of §4.2: points
// where a *new* robust plan is more likely to exist get higher weight. The
// weight combines the paper's two principles —
//
//	Principle 1: nearby points share robust plans, so weight decays with
//	the projected distance from the sub-space's bottom-left corner;
//	Principle 2: a plan is less likely to be robust where its cost slope
//	is high, so weight grows with the corner plans' cost slopes.
//
// Per §4.2 the per-dimension weight is
//
//	weight_i(pnt) = min(slope(pnt, lpOPT_pntHi), slope(pnt, lpOPT_pntLo)) / dist(pnt, pntLo_i)
//
// and the point weight aggregates dimensions by summation. Slopes are
// normalized by axis width and local cost so selectivity and rate dimensions
// are commensurable.
type WeightMap struct {
	space *Space
	// w holds one weight per grid point, indexed by Space.Ordinal.
	w []float64
}

// NewWeightMap returns a weight map over s with every weight 0.
func NewWeightMap(s *Space) *WeightMap {
	return &WeightMap{space: s, w: make([]float64, s.NumPoints())}
}

// slope returns the normalized cost slope of fn along dimension i at grid
// point g: the forward (or backward at the top edge) difference scaled to a
// full-axis traversal, relative to the local cost.
func (wm *WeightMap) slope(fn CostFn, g GridPoint, i int) float64 {
	s := wm.space
	if s.Steps < 2 {
		return 0
	}
	gg := g.Clone()
	var lo, hi GridPoint
	if g[i] < s.Steps-1 {
		lo = gg
		hi = gg.Clone()
		hi[i]++
	} else {
		hi = gg
		lo = gg.Clone()
		lo[i]--
	}
	fLo := fn(s.At(lo))
	fHi := fn(s.At(hi))
	base := math.Max(math.Abs(fLo), 1e-12)
	// Relative cost change per grid step: dimensionless, so selectivity
	// and rate axes contribute on the same scale.
	return math.Abs(fHi-fLo) / base
}

// weightAt computes the §4.2 weight of g inside region r with the region's
// corner-optimal plan cost surfaces.
func (wm *WeightMap) weightAt(g GridPoint, r Region, costLo, costHi CostFn) float64 {
	total := 0.0
	for i := range g {
		sl := math.Min(wm.slope(costLo, g, i), wm.slope(costHi, g, i))
		dist := math.Abs(float64(g[i] - r.Lo[i]))
		if dist < 0.5 {
			dist = 0.5 // the corner itself: finite weight, avoids /0
		}
		total += sl / dist
	}
	return total
}

// Assign (re)computes weights for every grid point in region r given the
// cost surfaces of the optimal plans at the region's corners. This is the
// per-sub-space re-assignment of §4.2; callers apply the conditional update
// rule (skip when corner plans are unchanged) before invoking it.
func (wm *WeightMap) Assign(r Region, costLo, costHi CostFn) {
	r.ForEach(func(g GridPoint) bool {
		wm.w[wm.space.Ordinal(g)] = wm.weightAt(g, r, costLo, costHi)
		return true
	})
}

// Weight returns the assigned weight of g (0 if unassigned).
func (wm *WeightMap) Weight(g GridPoint) float64 { return wm.w[wm.space.Ordinal(g)] }

// ArgMax returns the highest-weight grid point in region r, excluding the
// region's bottom-left corner (partitioning at Lo would not split the
// region). Ties break toward the region center to keep splits balanced.
// ok is false when the region has no eligible point (unit regions).
func (wm *WeightMap) ArgMax(r Region) (best GridPoint, ok bool) {
	if r.IsUnit() {
		return nil, false
	}
	center := r.Center()
	bestW := math.Inf(-1)
	bestDist := math.Inf(1)
	r.ForEach(func(g GridPoint) bool {
		if g.Equal(r.Lo) {
			return true
		}
		w := wm.w[wm.space.Ordinal(g)]
		d := g.Dist(center)
		if w > bestW || (w == bestW && d < bestDist) {
			bestW, bestDist = w, d
			best = g
		}
		return true
	})
	return best, best != nil
}
