package optimizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rld/internal/cost"
	"rld/internal/paramspace"
	"rld/internal/query"
)

func fixture(n int) (*query.Query, *paramspace.Space, *cost.Evaluator) {
	q := query.NewNWayJoin("Q", n, 2)
	dims := []paramspace.Dim{
		paramspace.SelDim(0, q.Ops[0].Sel, 3),
		paramspace.SelDim(1, q.Ops[1].Sel, 3),
	}
	s := paramspace.New(dims, 8)
	return q, s, cost.NewEvaluator(q, s)
}

func TestRankMatchesExhaustive(t *testing.T) {
	_, s, ev := fixture(5)
	rank := NewRank(ev)
	ex := &Exhaustive{Ev: ev}
	s.FullRegion().ForEach(func(g paramspace.GridPoint) bool {
		pnt := s.At(g)
		rp, rc := rank.Best(pnt)
		_, ec := ex.Best(pnt)
		if math.Abs(rc-ec) > 1e-9 {
			t.Fatalf("at %v: rank cost %v != exhaustive %v (plan %v)", g, rc, ec, rp)
		}
		return true
	})
}

// Property: for random queries and random points, the rank optimizer's plan
// cost equals the exhaustive minimum (the least-rank-first exactness).
func TestRankExactnessQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		q := query.NewRandomQuery("R", n, 2, rng)
		dims := []paramspace.Dim{
			paramspace.SelDim(rng.Intn(n), 0.3+0.4*rng.Float64(), 1+rng.Intn(4)),
			paramspace.RateDim(q.Streams[rng.Intn(n)], q.Rates[q.Streams[0]], 1+rng.Intn(4)),
		}
		s := paramspace.New(dims, 5)
		ev := cost.NewEvaluator(q, s)
		rank := NewRank(ev)
		ex := &Exhaustive{Ev: ev}
		g := paramspace.GridPoint{rng.Intn(5), rng.Intn(5)}
		pnt := s.At(g)
		_, rc := rank.Best(pnt)
		_, ec := ex.Best(pnt)
		return math.Abs(rc-ec) < 1e-9*(1+math.Abs(ec))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	// Two identical operators: rank ties must break by ID.
	q := &query.Query{
		Name:    "T",
		Streams: []string{"A", "B"},
		Rates:   map[string]float64{"A": 1, "B": 1},
	}
	q.Ops = []query.Operator{
		{ID: 0, Name: "op1", Cost: 2, Sel: 0.5, Stream: "A"},
		{ID: 1, Name: "op2", Cost: 2, Sel: 0.5, Stream: "B"},
	}
	s := paramspace.New([]paramspace.Dim{paramspace.SelDim(0, 0.5, 0)}, 2)
	ev := cost.NewEvaluator(q, s)
	rank := NewRank(ev)
	p1, _ := rank.Best(paramspace.Point{0.5})
	p2, _ := rank.Best(paramspace.Point{0.5})
	if !p1.Equal(p2) || !p1.Equal(query.Plan{0, 1}) {
		t.Fatalf("tie-break unstable: %v vs %v", p1, p2)
	}
}

func TestOptimalPlanChangesAcrossSpace(t *testing.T) {
	// The whole premise of the paper: different corners of the space have
	// different optimal plans.
	_, s, ev := fixture(5)
	rank := NewRank(ev)
	plans := map[string]bool{}
	s.FullRegion().ForEach(func(g paramspace.GridPoint) bool {
		p, _ := rank.Best(s.At(g))
		plans[p.Key()] = true
		return true
	})
	if len(plans) < 2 {
		t.Fatalf("expected multiple optimal plans across the space, got %d", len(plans))
	}
}

func TestCounterCountsAndMemoizes(t *testing.T) {
	_, s, ev := fixture(4)
	c := NewCounter(NewRank(ev))
	pnt := s.At(paramspace.GridPoint{1, 1})
	p1, c1, ok := c.Best(pnt)
	if !ok || p1 == nil {
		t.Fatal("first call failed")
	}
	p2, c2, ok := c.Best(pnt)
	if !ok || !p1.Equal(p2) || c1 != c2 {
		t.Fatal("memoized call should return identical result")
	}
	if c.Calls != 1 {
		t.Fatalf("Calls = %d, want 1 (memoized)", c.Calls)
	}
	other := s.At(paramspace.GridPoint{2, 3})
	if _, _, ok := c.Best(other); !ok {
		t.Fatal("second point failed")
	}
	if c.Calls != 2 {
		t.Fatalf("Calls = %d, want 2", c.Calls)
	}
	// Cost calls are free.
	_ = c.Cost(p1, pnt)
	if c.Calls != 2 {
		t.Fatal("Cost must not consume calls")
	}
	c.Reset()
	if c.Calls != 0 {
		t.Fatal("Reset failed")
	}
	if _, _, ok := c.Best(pnt); !ok || c.Calls != 1 {
		t.Fatal("post-reset call should recount")
	}
}

func TestCounterBudget(t *testing.T) {
	_, s, ev := fixture(4)
	c := NewBudgeted(NewRank(ev), 2)
	pts := []paramspace.GridPoint{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	okCount := 0
	for _, g := range pts {
		if _, _, ok := c.Best(s.At(g)); ok {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("budget allowed %d calls, want 2", okCount)
	}
	// Memoized points still answer after exhaustion.
	if _, _, ok := c.Best(s.At(pts[0])); !ok {
		t.Fatal("memoized answer should survive budget exhaustion")
	}
}

func TestExhaustiveCostAccessor(t *testing.T) {
	_, s, ev := fixture(3)
	ex := &Exhaustive{Ev: ev}
	rank := NewRank(ev)
	pnt := s.At(paramspace.GridPoint{1, 2})
	p := query.Plan{2, 1, 0}
	if ex.Cost(p, pnt) != rank.Cost(p, pnt) {
		t.Fatal("Cost accessors disagree")
	}
}

func TestRankHandlesZeroUnitCost(t *testing.T) {
	// An operator with vanishing effective cost must not divide by zero.
	q := query.NewNWayJoin("Q", 3, 2)
	q.Ops[1].Cost = 1e-300
	s := paramspace.New([]paramspace.Dim{paramspace.SelDim(0, 0.4, 1)}, 4)
	ev := cost.NewEvaluator(q, s)
	p, c := NewRank(ev).Best(paramspace.Point{0.4})
	if p == nil || math.IsNaN(c) || math.IsInf(c, 0) {
		t.Fatalf("degenerate cost broke optimizer: %v %v", p, c)
	}
}
