package baseline

import (
	"context"
	"testing"

	"rld/internal/cluster"
	"rld/internal/cost"
	"rld/internal/gen"
	"rld/internal/paramspace"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/sim"
	"rld/internal/stats"
)

func fixture() (*cost.Evaluator, *cluster.Cluster) {
	q := query.NewNWayJoin("Q1", 5, 2)
	dims := []paramspace.Dim{
		paramspace.SelDim(0, q.Ops[0].Sel, 3),
		paramspace.SelDim(3, q.Ops[3].Sel, 3),
	}
	s := paramspace.New(dims, 16)
	return cost.NewEvaluator(q, s), cluster.NewHomogeneous(3, 60)
}

func TestRODStaticBehavior(t *testing.T) {
	ev, cl := fixture()
	rod, err := NewROD(ev, cl)
	if err != nil {
		t.Fatal(err)
	}
	if rod.Name() != "ROD" {
		t.Fatal("name")
	}
	if !rod.Placement().Complete() {
		t.Fatal("incomplete placement")
	}
	// Fixed plan regardless of statistics.
	s1 := stats.Snapshot{Sels: []float64{0.1, 0.1, 0.1, 0.1, 0.1}}
	s2 := stats.Snapshot{Sels: []float64{0.9, 0.9, 0.9, 0.9, 0.9}}
	if !rod.PlanFor(0, s1).Equal(rod.PlanFor(100, s2)) {
		t.Fatal("ROD must keep a single compile-time plan")
	}
	if rod.Rebalance(0, []float64{100, 0, 0}, rod.Placement()) != nil {
		t.Fatal("ROD must never migrate")
	}
	if rod.ClassifyOverhead() != 0 || rod.DecisionOverhead() != 0 {
		t.Fatal("ROD has no runtime overhead (§6.5)")
	}
	if len(rod.Plan()) != 5 {
		t.Fatal("plan accessor wrong")
	}
}

func TestRODWorstCasePlacementFeasible(t *testing.T) {
	ev, cl := fixture()
	rod, err := NewROD(ev, cl)
	if err != nil {
		t.Fatal(err)
	}
	// The placement must fit the top-corner loads when capacity allows:
	// node loads under worst-case loads ≤ capacity.
	worst := ev.OpLoads(rod.Plan(), ev.Space().At(ev.Space().FullRegion().Hi))
	nl := rod.Placement().NodeLoads(worst, cl.N())
	for i, l := range nl {
		if l > cl.Nodes[i].Capacity+1e-9 {
			t.Fatalf("node %d overloaded at worst case: %v", i, l)
		}
	}
}

func TestRODInfeasible(t *testing.T) {
	ev, _ := fixture()
	if _, err := NewROD(ev, cluster.NewHomogeneous(1, 1e-9)); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestDYNMigratesUnderImbalance(t *testing.T) {
	ev, cl := fixture()
	dyn, err := NewDYN(ev, cl, DefaultDYNConfig())
	if err != nil {
		t.Fatal(err)
	}
	assign := dyn.Placement()
	// Fabricate a hot node 0.
	loads := []float64{1000, 1, 1}
	mig := dyn.Rebalance(100, loads, assign)
	if mig == nil {
		t.Fatal("DYN should migrate under 1000:1 imbalance")
	}
	if assign[mig.Op] != 0 {
		t.Fatal("must move an operator off the hot node")
	}
	if mig.To == 0 {
		t.Fatal("must move to a different node")
	}
	if mig.Downtime <= 0 {
		t.Fatal("migration must cost downtime")
	}
}

func TestDYNRespectsActivationFloorAndBalance(t *testing.T) {
	ev, cl := fixture()
	dyn, err := NewDYN(ev, cl, DefaultDYNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Rebalance(0, []float64{10, 1, 1}, dyn.Placement()) != nil {
		t.Fatal("below activation floor: no migration")
	}
	if dyn.Rebalance(0, []float64{100, 90, 95}, dyn.Placement()) != nil {
		t.Fatal("balanced load: no migration")
	}
	if dyn.Rebalance(0, []float64{100}, dyn.Placement()) != nil {
		t.Fatal("single node: no migration")
	}
}

func TestDYNCooldownPreventsPingPong(t *testing.T) {
	ev, cl := fixture()
	dyn, err := NewDYN(ev, cl, DefaultDYNConfig())
	if err != nil {
		t.Fatal(err)
	}
	assign := dyn.Placement()
	loads := []float64{1000, 1, 1}
	m1 := dyn.Rebalance(100, loads, assign)
	if m1 == nil {
		t.Fatal("first migration expected")
	}
	assign[m1.Op] = m1.To
	// Immediately retrigger with the destination now hot: the operator
	// just moved must not bounce back within the cooldown.
	loads2 := make([]float64, 3)
	loads2[m1.To] = 1000
	m2 := dyn.Rebalance(101, loads2, assign)
	if m2 != nil && m2.Op == m1.Op {
		t.Fatal("operator ping-ponged within cooldown")
	}
}

func TestDYNStateTransferScalesWithWindow(t *testing.T) {
	ev, cl := fixture()
	cfg := DefaultDYNConfig()
	dyn, err := NewDYN(ev, cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All our fixture ops have streams → downtime includes state
	// transfer: rate 2 t/s × 60 s window × 0.002 = 0.24 over the 0.25
	// suspension.
	dt := dyn.migrationDowntime(1)
	want := cfg.SuspendSeconds + cfg.StateTransferPerTuple*2*60
	if dt != want {
		t.Fatalf("downtime = %v, want %v", dt, want)
	}
}

func TestDYNPlanFixed(t *testing.T) {
	ev, cl := fixture()
	dyn, err := NewDYN(ev, cl, DefaultDYNConfig())
	if err != nil {
		t.Fatal(err)
	}
	s1 := stats.Snapshot{Sels: []float64{0.1, 0.2, 0.3, 0.4, 0.5}}
	if !dyn.PlanFor(0, s1).Equal(dyn.Plan()) {
		t.Fatal("DYN must keep its compile-time plan")
	}
	if dyn.DecisionOverhead() <= 0 {
		t.Fatal("DYN pays per-tick decision overhead")
	}
	if dyn.ClassifyOverhead() != 0 {
		t.Fatal("DYN does not classify batches")
	}
}

func TestDYNInfeasible(t *testing.T) {
	ev, _ := fixture()
	if _, err := NewDYN(ev, cluster.NewHomogeneous(1, 1e-9), DefaultDYNConfig()); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestBaselinesRunInSimulator(t *testing.T) {
	ev, cl := fixture()
	q := ev.Query()
	sc := &sim.Scenario{
		Query:     q,
		Rates:     map[string]gen.Profile{},
		Sels:      make([]gen.Profile, len(q.Ops)),
		Cluster:   cl,
		BatchSize: 20,
		Seed:      4,
	}
	for _, s := range q.Streams {
		sc.Rates[s] = gen.ConstProfile(q.Rates[s])
	}
	for i := range sc.Sels {
		sc.Sels[i] = gen.ConstProfile(q.Ops[i].Sel)
	}
	rod, err := NewROD(ev, cl)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDYN(ev, cl, DefaultDYNConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []runtime.Policy{rod, dyn} {
		ss, err := sim.OpenSession(sc, pol, runtime.SessionOptions{Horizon: 200})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		res, err := runtime.Replay(context.Background(), ss, sc.Arrivals(200))
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Produced == 0 {
			t.Fatalf("%s produced nothing", pol.Name())
		}
	}
}
