package rld

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestIntegrationPipelineInvariants runs the full optimize→simulate pipeline
// across random queries and checks the end-to-end invariants the paper's
// design rests on.
func TestIntegrationPipelineInvariants(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		q := NewRandomQuery("R", n, 2+rng.Float64()*4, rng)
		dims := []Dim{
			SelDim(0, q.Ops[0].Sel, 1+rng.Intn(4)),
			SelDim(n-1, q.Ops[n-1].Sel, 1+rng.Intn(4)),
		}
		cl := NewCluster(2+rng.Intn(3), 2000)
		dep, err := Optimize(q, dims, cl, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Invariant 1: every supported plan obeys Def. 3.
		for _, lp := range dep.SupportedPlans() {
			if !dep.Physical.Assign.Supports(lp, cl) {
				t.Fatalf("seed %d: support claim violates capacity", seed)
			}
		}
		// Invariant 2: the classifier always answers with a valid plan.
		snap := Snapshot{Sels: make([]float64, n), Rates: map[string]float64{}}
		for i := range snap.Sels {
			snap.Sels[i] = rng.Float64()
		}
		plan, _ := dep.Classify(snap)
		if !plan.Valid(q) {
			t.Fatalf("seed %d: invalid classified plan %v", seed, plan)
		}
		// Invariant 3: simulation conserves tuples (produced = ingested ×
		// Πδ under constant stats, no drops).
		sc := &Scenario{
			Query:     q,
			Rates:     map[string]Profile{},
			Sels:      make([]Profile, n),
			Cluster:   cl,
			BatchSize: 10,
			Seed:      seed,
		}
		want := 1.0
		for _, s := range q.Streams {
			sc.Rates[s] = ConstProfile(q.Rates[s])
		}
		for i := range sc.Sels {
			sc.Sels[i] = ConstProfile(q.Ops[i].Sel)
			want *= q.Ops[i].Sel
		}
		res, err := simulate(dep, sc, dep.NewPolicy(10), 150)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Ingested == 0 {
			t.Fatalf("seed %d: nothing ingested", seed)
		}
		got := res.Produced / res.Ingested
		if math.Abs(got-want) > 0.02*want+1e-9 {
			t.Fatalf("seed %d: output ratio %v, want Πδ = %v", seed, got, want)
		}
	}
}

// TestIntegrationRLDNeverWorseThanROD checks the runtime headline across
// several fluctuating scenarios: RLD's mean latency never exceeds ROD's by
// more than measurement noise, because RLD always has ROD's plan available
// and switches only to ε-better ones.
func TestIntegrationRLDNeverWorseThanROD(t *testing.T) {
	for _, ratio := range []float64{1, 2} {
		q := NewNWayJoin("Q1", 5, 10)
		dims := []Dim{
			SelDim(0, q.Ops[0].Sel, 5),
			SelDim(3, q.Ops[3].Sel, 5),
		}
		cl := NewCluster(4, 500)
		dep, err := Optimize(q, dims, cl, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rod, err := NewROD(dep)
		if err != nil {
			t.Fatal(err)
		}
		sc := &Scenario{
			Query:        q,
			Rates:        map[string]Profile{},
			Sels:         make([]Profile, len(q.Ops)),
			Cluster:      cl,
			BatchSize:    25,
			CountWindows: true,
			Seed:         9,
		}
		for _, s := range q.Streams {
			sc.Rates[s] = ConstProfile(q.Rates[s] * ratio)
		}
		for i := range sc.Sels {
			sc.Sels[i] = ConstProfile(q.Ops[i].Sel)
		}
		for di, d := range dims {
			sc.Sels[d.Op] = SquareProfile{
				Lo: d.Lo + 0.01, Hi: d.Hi - 0.01,
				Period: 60, PhaseShift: float64(di) * 30,
			}
		}
		rodRes, err := simulate(dep, sc, rod, 600)
		if err != nil {
			t.Fatal(err)
		}
		rldRes, err := simulate(dep, sc, dep.NewPolicy(25), 600)
		if err != nil {
			t.Fatal(err)
		}
		if rldRes.MeanLatencyMS > rodRes.MeanLatencyMS*1.10 {
			t.Fatalf("ratio %v: RLD latency %v ms exceeds ROD %v ms by >10%%",
				ratio, rldRes.MeanLatencyMS, rodRes.MeanLatencyMS)
		}
	}
}

// Property: Optimize is deterministic — identical inputs yield identical
// logical solutions and placements.
func TestIntegrationDeterminismQuick(t *testing.T) {
	f := func(raw uint8) bool {
		u := int(raw)%5 + 1
		q := NewNWayJoin("D", 4, 2)
		dims := []Dim{
			SelDim(0, q.Ops[0].Sel, u),
			SelDim(2, q.Ops[2].Sel, u),
		}
		cl := NewCluster(2, 500)
		a, err1 := Optimize(q, dims, cl, DefaultConfig())
		b, err2 := Optimize(q, dims, cl, DefaultConfig())
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if a.Logical.NumPlans() != b.Logical.NumPlans() || a.Logical.Calls != b.Logical.Calls {
			return false
		}
		for i := range a.Physical.Assign {
			if a.Physical.Assign[i] != b.Physical.Assign[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationBudgetedOptimize exercises graceful degradation: even a
// one-call budget yields a valid (single-plan) deployment — Algorithm 3
// keeps every discovered plan in LPi, so the executor always has something
// to run.
func TestIntegrationBudgetedOptimize(t *testing.T) {
	q := NewNWayJoin("B", 4, 2)
	dims := []Dim{SelDim(0, q.Ops[0].Sel, 3)}
	cfg := DefaultConfig()
	cfg.Robust.MaxCalls = 1
	dep, err := Optimize(q, dims, NewCluster(2, 500), cfg)
	if err != nil {
		t.Fatalf("1-call budget should degrade gracefully: %v", err)
	}
	if dep.Logical.NumPlans() != 1 || dep.Logical.Calls != 1 {
		t.Fatalf("expected exactly the one discovered plan, got %d plans / %d calls",
			dep.Logical.NumPlans(), dep.Logical.Calls)
	}
	snap := Snapshot{Sels: []float64{0.3, 0.35, 0.4, 0.45}, Rates: map[string]float64{}}
	if plan, _ := dep.Classify(snap); !plan.Valid(q) {
		t.Fatal("minimal deployment must still classify")
	}
}
