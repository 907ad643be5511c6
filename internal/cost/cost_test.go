package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rld/internal/paramspace"
	"rld/internal/query"
)

func fixture() (*query.Query, *paramspace.Space, *Evaluator) {
	q := query.NewNWayJoin("Q", 3, 2)
	s := paramspace.New([]paramspace.Dim{
		paramspace.SelDim(0, q.Ops[0].Sel, 2),
		paramspace.RateDim("S2", 2, 2),
	}, 9)
	return q, s, NewEvaluator(q, s)
}

func TestSelAndRateLookup(t *testing.T) {
	q, s, ev := fixture()
	center := s.At(s.Center())
	// Parameterized selectivity comes from the point.
	if got := ev.Sel(0, center); math.Abs(got-q.Ops[0].Sel) > 0.02 {
		t.Fatalf("Sel(0) = %v, want ≈%v", got, q.Ops[0].Sel)
	}
	// Unparameterized ops fall back to estimates.
	if got := ev.Sel(1, center); got != q.Ops[1].Sel {
		t.Fatalf("Sel(1) = %v, want estimate %v", got, q.Ops[1].Sel)
	}
	// Rate factor: at the top corner, S2's rate is 1.2× base.
	top := s.At(s.FullRegion().Hi)
	if got := ev.RateFactor("S2", top); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("RateFactor top = %v, want 1.2", got)
	}
	if got := ev.RateFactor("S1", top); got != 1 {
		t.Fatalf("unparameterized rate factor = %v, want 1", got)
	}
}

func TestTotalRateOverride(t *testing.T) {
	q, s, ev := fixture()
	top := s.At(s.FullRegion().Hi)
	// Streams: S1..S3 at 2 t/s; S2 overridden to 2.4 at top.
	want := q.TotalRate() - 2 + 2.4
	if got := ev.TotalRate(top); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalRate = %v, want %v", got, want)
	}
}

func TestPlanCostMatchesManualFormula(t *testing.T) {
	q, s, ev := fixture()
	pnt := s.At(paramspace.GridPoint{4, 4})
	p := query.Plan{2, 0, 1}
	sel := func(op int) float64 { return ev.Sel(op, pnt) }
	e := func(op int) float64 { return ev.UnitCost(op, pnt) }
	lambda := ev.TotalRate(pnt)
	want := lambda * (e(2) + e(0)*sel(2) + e(1)*sel(2)*sel(0))
	if got := ev.PlanCost(p, pnt); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PlanCost = %v, want %v", got, want)
	}
	_ = q
}

func TestOpLoadsSumToPlanCost(t *testing.T) {
	_, s, ev := fixture()
	pnt := s.At(paramspace.GridPoint{2, 7})
	for _, p := range query.Permutations(3) {
		loads := ev.OpLoads(p, pnt)
		sum := 0.0
		for _, l := range loads {
			sum += l
		}
		if got := ev.PlanCost(p, pnt); math.Abs(sum-got) > 1e-9 {
			t.Fatalf("plan %v: Σloads %v != cost %v", p, sum, got)
		}
		// Earlier operators carry no selectivity discount: the first
		// operator's load must equal λ·e.
		first := p[0]
		want := ev.TotalRate(pnt) * ev.UnitCost(first, pnt)
		if math.Abs(loads[first]-want) > 1e-9 {
			t.Fatalf("first op load %v, want %v", loads[first], want)
		}
	}
}

// Property: PlanCost is monotonically non-decreasing along every dimension
// (the §2.3 monotonicity that Principles 1 and 2 rely on).
func TestPlanCostMonotoneQuick(t *testing.T) {
	q := query.NewNWayJoin("Q", 4, 2)
	s := paramspace.New([]paramspace.Dim{
		paramspace.SelDim(0, 0.4, 3),
		paramspace.SelDim(2, 0.6, 3),
		paramspace.RateDim("S2", 2, 3),
	}, 8)
	ev := NewEvaluator(q, s)
	perms := query.Permutations(4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := perms[rng.Intn(len(perms))]
		g := paramspace.GridPoint{rng.Intn(7), rng.Intn(7), rng.Intn(7)}
		dim := rng.Intn(3)
		h := g.Clone()
		h[dim]++
		return ev.PlanCost(p, s.At(h)) >= ev.PlanCost(p, s.At(g))-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCostFnIsolation(t *testing.T) {
	_, s, ev := fixture()
	p := query.Plan{0, 1, 2}
	fn := ev.CostFn(p)
	p[0], p[2] = p[2], p[0] // mutate after capture
	pnt := s.At(paramspace.GridPoint{1, 1})
	if got, want := fn(pnt), ev.PlanCost(query.Plan{0, 1, 2}, pnt); math.Abs(got-want) > 1e-12 {
		t.Fatal("CostFn must capture a copy of the plan")
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	q, s, ev := fixture()
	if ev.Query() != q || ev.Space() != s {
		t.Fatal("accessors wrong")
	}
}

// TestTotalRateRepeatable: Λ at one point is one float64, bit for bit, call
// after call, and equals the rates added up in the query's stream order. On
// a 10-way join with five rate dims, a sum in map iteration order gave
// several bit patterns over 2 000 calls.
func TestTotalRateRepeatable(t *testing.T) {
	q := query.NewNWayJoin("Q", 10, 0.7)
	var dims []paramspace.Dim
	for i := 0; i < 10; i += 2 {
		dims = append(dims, paramspace.RateDim(q.Streams[i], q.Rates[q.Streams[i]], 2))
	}
	s := paramspace.New(dims, 7)
	ev := NewEvaluator(q, s)
	pnt := s.At(paramspace.GridPoint{1, 6, 2, 5, 3})
	want := 0.0
	for i, name := range q.Streams {
		if i%2 == 0 {
			want += pnt[i/2]
		} else {
			want += q.Rates[name]
		}
	}
	for i := 0; i < 2000; i++ {
		if got := ev.TotalRate(pnt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: TotalRate = %v (%#x), want %v (%#x)", i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestTotalRateGuard(t *testing.T) {
	q := query.NewNWayJoin("Q", 2, 1)
	q.Rates = map[string]float64{}
	s := paramspace.New([]paramspace.Dim{paramspace.SelDim(0, 0.5, 1)}, 4)
	ev := NewEvaluator(q, s)
	if got := ev.TotalRate(paramspace.Point{0.5}); got != 1 {
		t.Fatalf("empty-rate guard = %v, want 1", got)
	}
}

func TestFitSurfaceRecovers2DModel(t *testing.T) {
	// Paper §2.3: cost = c1σi + c2σj + c3σiσj + c4.
	truth := func(x, y float64) float64 { return 3*x + 5*y + 7*x*y + 11 }
	var pts []paramspace.Point
	var cs []float64
	for i := 0; i <= 6; i++ {
		for j := 0; j <= 6; j++ {
			x, y := 0.1+0.1*float64(i), 0.2+0.1*float64(j)
			pts = append(pts, paramspace.Point{x, y})
			cs = append(cs, truth(x, y))
		}
	}
	sf, err := FitSurface(2, pts, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 3, 5, 7} // const, x, y, xy
	for i, w := range want {
		if math.Abs(sf.Coef[i]-w) > 1e-6 {
			t.Fatalf("coef[%d] = %v, want %v", i, sf.Coef[i], w)
		}
	}
	if r2 := sf.RSquared(pts, cs); r2 < 0.999999 {
		t.Fatalf("R² = %v, want ≈1", r2)
	}
}

func TestFitSurfaceApproximatesPlanCost(t *testing.T) {
	_, s, ev := fixture()
	p := query.Plan{0, 1, 2}
	var pts []paramspace.Point
	var cs []float64
	s.FullRegion().ForEach(func(g paramspace.GridPoint) bool {
		pnt := s.At(g)
		pts = append(pts, pnt)
		cs = append(cs, ev.PlanCost(p, pnt))
		return true
	})
	sf, err := FitSurface(2, pts, cs)
	if err != nil {
		t.Fatal(err)
	}
	// The true surface has a mild λ² term (the rate appears in both Λ and
	// the unit costs), so the multilinear fit is near- but not exactly
	// perfect — the paper's surface-fitting premise.
	if r2 := sf.RSquared(pts, cs); r2 < 0.995 {
		t.Fatalf("R² = %v, want > 0.995", r2)
	}
}

func TestFitSurfaceErrors(t *testing.T) {
	if _, err := FitSurface(0, nil, nil); err == nil {
		t.Fatal("d=0 should error")
	}
	if _, err := FitSurface(2, make([]paramspace.Point, 3), make([]float64, 2)); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := FitSurface(2, make([]paramspace.Point, 2), make([]float64, 2)); err == nil {
		t.Fatal("too few samples should error")
	}
	// Degenerate samples (all the same point) → singular matrix.
	pts := []paramspace.Point{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	cs := []float64{1, 1, 1, 1}
	if _, err := FitSurface(2, pts, cs); err == nil {
		t.Fatal("singular design should error")
	}
}

func TestRSquaredDegenerate(t *testing.T) {
	sf := &Surface{D: 1, Coef: []float64{5, 0}}
	pts := []paramspace.Point{{1}, {2}}
	if r2 := sf.RSquared(pts, []float64{5, 5}); r2 != 1 {
		t.Fatalf("constant exact fit R² = %v, want 1", r2)
	}
	if r2 := sf.RSquared(pts, []float64{6, 6}); r2 != 0 {
		t.Fatalf("constant wrong fit R² = %v, want 0", r2)
	}
	if r2 := sf.RSquared(nil, nil); r2 != 0 {
		t.Fatal("empty R² should be 0")
	}
}
