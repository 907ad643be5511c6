package paramspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoDimSpace(steps int) *Space {
	return New([]Dim{
		SelDim(0, 0.4, 2),
		RateDim("News", 100, 2),
	}, steps)
}

func TestAlgorithm1Bounds(t *testing.T) {
	// Example 2: E = {δ1=0.4, λN=100}, U=2 → δ1 ∈ [0.32, 0.48],
	// λN ∈ [80, 120].
	s := twoDimSpace(16)
	d0, d1 := s.Dims[0], s.Dims[1]
	if math.Abs(d0.Lo-0.32) > 1e-12 || math.Abs(d0.Hi-0.48) > 1e-12 {
		t.Fatalf("selectivity bounds [%v, %v], want [0.32, 0.48]", d0.Lo, d0.Hi)
	}
	if math.Abs(d1.Lo-80) > 1e-9 || math.Abs(d1.Hi-120) > 1e-9 {
		t.Fatalf("rate bounds [%v, %v], want [80, 120]", d1.Lo, d1.Hi)
	}
}

func TestSelDimClamping(t *testing.T) {
	d := SelDim(0, 0.9, 5) // 0.9*1.5 = 1.35 → clamp to 1
	if d.Hi != 1 {
		t.Fatalf("Hi = %v, want clamped 1", d.Hi)
	}
	d = SelDim(0, 1e-5, 5) // lower bound clamps at 1e-4 floor
	if d.Lo < 1e-5 {
		t.Fatalf("Lo = %v, want ≥ floor", d.Lo)
	}
	if d.Hi <= d.Lo {
		t.Fatal("degenerate dim must keep Hi > Lo")
	}
}

func TestSpaceValueMapping(t *testing.T) {
	s := twoDimSpace(16)
	if got := s.Value(0, 0); math.Abs(got-0.32) > 1e-12 {
		t.Fatalf("Value(0,0) = %v", got)
	}
	if got := s.Value(0, 15); math.Abs(got-0.48) > 1e-12 {
		t.Fatalf("Value(0,15) = %v", got)
	}
	mid := s.Value(1, 15)
	if math.Abs(mid-120) > 1e-9 {
		t.Fatalf("Value(1,15) = %v, want 120", mid)
	}
	if s.NumPoints() != 256 {
		t.Fatalf("NumPoints = %d, want 256", s.NumPoints())
	}
	p := s.At(GridPoint{0, 15})
	if math.Abs(p[0]-0.32) > 1e-12 || math.Abs(p[1]-120) > 1e-9 {
		t.Fatalf("At = %v", p)
	}
}

func TestSpaceCenterMapsBase(t *testing.T) {
	s := twoDimSpace(17) // odd steps: exact center exists
	c := s.Center()
	if c[0] != 8 || c[1] != 8 {
		t.Fatalf("Center = %v, want [8 8]", c)
	}
	v := s.At(c)
	if math.Abs(v[0]-0.4) > 1e-9 || math.Abs(v[1]-100) > 1e-6 {
		t.Fatalf("center values %v, want base estimates", v)
	}
}

// TestNearestRoundsLikeMathRound pins Space.Nearest to the clamp of
// math.Round over the grid, at random values, at every grid value and at
// every exact half-step between two (where half away from zero decides),
// and at values outside the range or not finite.
func TestNearestRoundsLikeMathRound(t *testing.T) {
	s := twoDimSpace(16)
	want := func(i int, v float64) int {
		d := s.Dims[i]
		k := math.Round((v - d.Lo) / (d.Hi - d.Lo) * float64(s.Steps-1))
		if math.IsNaN(k) || k < 0 {
			return 0
		}
		return int(math.Min(k, float64(s.Steps-1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i, d := range s.Dims {
		span := d.Hi - d.Lo
		vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -d.Hi, 0, d.Base}
		for k := -2; k <= 2*s.Steps; k++ {
			vals = append(vals, d.Lo+span*float64(k)/float64(2*(s.Steps-1)))
		}
		for n := 0; n < 10000; n++ {
			vals = append(vals, d.Lo+span*(rng.Float64()*1.4-0.2))
		}
		for _, v := range vals {
			if got, w := s.Nearest(i, v), want(i, v); got != w {
				t.Fatalf("dim %d: Nearest(%v) = %d, math.Round rule %d", i, v, got, w)
			}
		}
	}
	flat := New([]Dim{{Lo: 0.5, Hi: 0.5}}, 16)
	if got := flat.Nearest(0, 0.9); got != 0 {
		t.Fatalf("degenerate dim: Nearest = %d, want 0", got)
	}
}

func TestGridPointOps(t *testing.T) {
	g := GridPoint{3, 5}
	h := g.Clone()
	h[0] = 9
	if g[0] != 3 {
		t.Fatal("Clone aliased")
	}
	if !g.Equal(GridPoint{3, 5}) || g.Equal(GridPoint{3, 6}) || g.Equal(GridPoint{3}) {
		t.Fatal("Equal wrong")
	}
	if g.Dist(GridPoint{1, 9}) != 6 {
		t.Fatal("Manhattan distance wrong")
	}
}

// TestSpaceOrdinal pins the ordinal as a bijection onto [0, NumPoints())
// that a full-region walk visits in order.
func TestSpaceOrdinal(t *testing.T) {
	s := New([]Dim{SelDim(0, 0.5, 1), SelDim(1, 0.5, 1), SelDim(2, 0.5, 1)}, 3)
	next := 0
	s.FullRegion().ForEach(func(g GridPoint) bool {
		if o := s.Ordinal(g); o != next {
			t.Fatalf("Ordinal(%v) = %d, want %d", g, o, next)
		}
		next++
		return true
	})
	if next != s.NumPoints() {
		t.Fatalf("walk visited %d points, want %d", next, s.NumPoints())
	}
	if o := s.Ordinal(GridPoint{2, 0, 1}); o != 2+0*3+1*9 {
		t.Fatalf("Ordinal = %d: dimension 0 must be least significant", o)
	}
}

func TestRegionBasics(t *testing.T) {
	r := Region{Lo: GridPoint{0, 0}, Hi: GridPoint{3, 2}}
	if !r.Valid() {
		t.Fatal("region should be valid")
	}
	if r.NumPoints() != 12 {
		t.Fatalf("NumPoints = %d, want 12", r.NumPoints())
	}
	if !r.Contains(GridPoint{3, 0}) || r.Contains(GridPoint{4, 0}) {
		t.Fatal("Contains wrong")
	}
	if r.IsUnit() {
		t.Fatal("not unit")
	}
	if !(Region{Lo: GridPoint{1, 1}, Hi: GridPoint{1, 1}}).IsUnit() {
		t.Fatal("unit region misdetected")
	}
	if c := r.Center(); !c.Equal(GridPoint{1, 1}) {
		t.Fatalf("Center = %v", c)
	}
	if (Region{Lo: GridPoint{2, 0}, Hi: GridPoint{1, 5}}).Valid() {
		t.Fatal("inverted region should be invalid")
	}
}

func TestRegionSplitInterior(t *testing.T) {
	r := Region{Lo: GridPoint{0, 0}, Hi: GridPoint{7, 7}}
	parts := r.Split(GridPoint{4, 4})
	if len(parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(parts))
	}
	total := 0
	for _, p := range parts {
		if !p.Valid() {
			t.Fatalf("invalid part %v", p)
		}
		total += p.NumPoints()
		for _, q := range parts {
			if &p != &q && !p.Lo.Equal(q.Lo) && overlaps(p, q) {
				t.Fatalf("overlapping parts %v %v", p, q)
			}
		}
	}
	if total != r.NumPoints() {
		t.Fatalf("split loses points: %d vs %d", total, r.NumPoints())
	}
}

func TestRegionSplitEdgePoint(t *testing.T) {
	r := Region{Lo: GridPoint{0, 0}, Hi: GridPoint{7, 7}}
	parts := r.Split(GridPoint{4, 0}) // on the bottom edge: only x splits
	if len(parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(parts))
	}
	parts = r.Split(GridPoint{0, 0}) // Lo corner: no split
	if len(parts) != 1 || parts[0].NumPoints() != r.NumPoints() {
		t.Fatalf("corner split should return the region: %v", parts)
	}
}

// overlaps reports whether regions a and b share at least one grid point.
func overlaps(a, b Region) bool {
	for i := range a.Lo {
		if a.Hi[i] < b.Lo[i] || b.Hi[i] < a.Lo[i] {
			return false
		}
	}
	return true
}

// Property: any split at an in-region point partitions exactly (no loss, no
// overlap).
func TestRegionSplitQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		lo := make(GridPoint, d)
		hi := make(GridPoint, d)
		p := make(GridPoint, d)
		for i := 0; i < d; i++ {
			lo[i] = rng.Intn(4)
			hi[i] = lo[i] + rng.Intn(6)
			p[i] = lo[i] + rng.Intn(hi[i]-lo[i]+1)
		}
		r := Region{Lo: lo, Hi: hi}
		parts := r.Split(p)
		total := 0
		for i, a := range parts {
			if !a.Valid() {
				return false
			}
			total += a.NumPoints()
			for j, b := range parts {
				if i != j && overlaps(a, b) {
					return false
				}
			}
		}
		return total == r.NumPoints()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionForEach(t *testing.T) {
	r := Region{Lo: GridPoint{1, 1}, Hi: GridPoint{2, 3}}
	var seen []GridPoint
	done := r.ForEach(func(g GridPoint) bool {
		seen = append(seen, g)
		return true
	})
	if !done || len(seen) != r.NumPoints() {
		t.Fatalf("ForEach visited %d, want %d", len(seen), r.NumPoints())
	}
	uniq := map[[2]int]bool{}
	for _, g := range seen {
		if !r.Contains(g) {
			t.Fatalf("visited outside point %v", g)
		}
		uniq[[2]int{g[0], g[1]}] = true
	}
	if len(uniq) != len(seen) {
		t.Fatal("duplicate visits")
	}
	// Early stop.
	count := 0
	done = r.ForEach(func(GridPoint) bool { count++; return count < 3 })
	if done || count != 3 {
		t.Fatalf("early stop failed: done=%v count=%d", done, count)
	}
}

func TestFullRegion(t *testing.T) {
	s := twoDimSpace(8)
	r := s.FullRegion()
	if r.NumPoints() != 64 {
		t.Fatalf("full region has %d points", r.NumPoints())
	}
}

func TestOccurrenceModelNormalization(t *testing.T) {
	s := twoDimSpace(16)
	m := NewOccurrenceModel(s)
	// Total mass over the whole grid must be ≈1 (edge cells absorb tails).
	total := 0.0
	s.FullRegion().ForEach(func(g GridPoint) bool {
		total += cellProb(m, g)
		return true
	})
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("total mass = %v, want 1", total)
	}
	// RegionProb must equal the sum of its cells' masses (factorization).
	r := Region{Lo: GridPoint{2, 3}, Hi: GridPoint{9, 12}}
	sum := 0.0
	r.ForEach(func(g GridPoint) bool { sum += cellProb(m, g); return true })
	if got := m.RegionProb(r); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("RegionProb %v != Σ cell masses %v", got, sum)
	}
}

// cellProb is the probability mass of g's grid cell: RegionProb of the
// unit region at g.
func cellProb(m *OccurrenceModel, g GridPoint) float64 {
	return m.RegionProb(Region{Lo: g, Hi: g})
}

func TestOccurrenceModelCenterHeavier(t *testing.T) {
	s := twoDimSpace(17)
	m := NewOccurrenceModel(s)
	center := cellProb(m, s.Center())
	corner := cellProb(m, GridPoint{1, 1}) // interior corner-ish cell
	if center <= corner {
		t.Fatalf("center mass %v should exceed off-center %v", center, corner)
	}
	if m.Mu(0) != 0.4 || m.Sigma(0) <= 0 {
		t.Fatal("model parameters wrong")
	}
}

func TestExample5Probability(t *testing.T) {
	// Example 5: µ=0.5, σ=0.2 → Pr(0.3 ≤ x ≤ 0.5) = 0.341.
	m := &OccurrenceModel{mu: []float64{0.5}, sigma: []float64{0.2}}
	got := m.DimProb(0, 0.3, 0.5)
	if math.Abs(got-0.3413) > 0.001 {
		t.Fatalf("DimProb = %.4f, want ≈0.3413", got)
	}
}

func TestWeightMapPrinciples(t *testing.T) {
	s := twoDimSpace(16)
	wm := NewWeightMap(s)
	r := s.FullRegion()
	// A steep multiplicative surface: cost grows in both dims.
	cost := func(p Point) float64 { return (1 + p[0]) * (1 + p[1]/100) * 10 }
	wm.Assign(r, cost, cost)
	// Principle 1: weight decays with distance from pntLo along a row.
	w1 := wm.Weight(GridPoint{1, 0})
	w5 := wm.Weight(GridPoint{5, 0})
	w15 := wm.Weight(GridPoint{15, 0})
	if !(w1 > w5 && w5 > w15) {
		t.Fatalf("weights should decay with distance: %v %v %v", w1, w5, w15)
	}
	for _, g := range []GridPoint{{0, 0}, {3, 7}, {15, 15}} {
		if wm.Weight(g) <= 0 {
			t.Fatalf("non-positive weight at %v", g)
		}
	}
}

func TestWeightMapSlopeDominates(t *testing.T) {
	s := New([]Dim{SelDim(0, 0.5, 3), SelDim(1, 0.5, 3)}, 16)
	wm := NewWeightMap(s)
	r := s.FullRegion()
	// Cost slope along dim 0 is much steeper than along dim 1.
	cost := func(p Point) float64 { return 1 + 100*p[0] + 0.1*p[1] }
	wm.Assign(r, cost, cost)
	// At equal distance from Lo, the point displaced along the steep dim
	// must outweigh the one along the flat dim... both have the same
	// per-dimension distances; compare points (5,1) vs (1,5):
	steep := wm.Weight(GridPoint{1, 5}) // close in steep dim → big slope/dist
	flat := wm.Weight(GridPoint{5, 1})
	if steep <= flat {
		t.Fatalf("steep-dim-proximal weight %v should exceed %v", steep, flat)
	}
}

func TestWeightMapArgMax(t *testing.T) {
	s := twoDimSpace(8)
	wm := NewWeightMap(s)
	r := s.FullRegion()
	cost := func(p Point) float64 { return 1 + p[0] }
	wm.Assign(r, cost, cost)
	g, ok := wm.ArgMax(r)
	if !ok {
		t.Fatal("ArgMax failed")
	}
	if g.Equal(r.Lo) {
		t.Fatal("ArgMax must exclude the Lo corner")
	}
	if !r.Contains(g) {
		t.Fatalf("ArgMax outside region: %v", g)
	}
	// Unit region: no eligible point.
	if _, ok := wm.ArgMax(Region{Lo: GridPoint{1, 1}, Hi: GridPoint{1, 1}}); ok {
		t.Fatal("unit region should have no ArgMax")
	}
}

func TestDimKindAndString(t *testing.T) {
	if Selectivity.String() != "selectivity" || Rate.String() != "rate" {
		t.Fatal("DimKind strings wrong")
	}
	if DimKind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
	r := Region{Lo: GridPoint{0}, Hi: GridPoint{3}}
	if r.String() == "" {
		t.Fatal("empty region string")
	}
}

func TestRateDimGuards(t *testing.T) {
	d := RateDim("S", 0.000001, 5)
	if d.Lo <= 0 || d.Hi <= d.Lo {
		t.Fatalf("rate dim degenerate: %+v", d)
	}
}

func TestSpaceMinimumSteps(t *testing.T) {
	s := New([]Dim{SelDim(0, 0.5, 1)}, 0)
	if s.Steps < 2 {
		t.Fatal("steps must clamp to ≥2")
	}
}
