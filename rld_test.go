package rld

import (
	"context"
	"testing"
)

func testDeployment(t *testing.T) *Deployment {
	t.Helper()
	q := NewNWayJoin("Q1", 5, 2)
	dims := []Dim{
		SelDim(0, q.Ops[0].Sel, 3),
		SelDim(3, q.Ops[3].Sel, 3),
	}
	cl := NewCluster(3, 60)
	dep, err := Optimize(q, dims, cl, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestPublicOptimizePipeline(t *testing.T) {
	dep := testDeployment(t)
	if dep.Logical.NumPlans() == 0 {
		t.Fatal("no robust plans")
	}
	if !dep.Physical.Assign.Complete() {
		t.Fatal("incomplete physical plan")
	}
}

func TestPublicClassify(t *testing.T) {
	dep := testDeployment(t)
	snap := Snapshot{Sels: []float64{0.3, 0.35, 0.4, 0.45, 0.5}, Rates: map[string]float64{}}
	plan, idx := dep.Classify(snap)
	if plan == nil || idx < 0 {
		t.Fatal("classification failed")
	}
}

// simulate runs pol on the simulator for horizon virtual seconds, fed by
// the scenario's own arrival processes.
func simulate(dep *Deployment, sc *Scenario, pol Policy, horizon float64) (*Report, error) {
	ctx := context.Background()
	pipe, err := Open(ctx, dep, pol, WithSimulation(sc), WithHorizon(horizon))
	if err != nil {
		return nil, err
	}
	return Replay(ctx, pipe, sc.Arrivals(horizon))
}

func TestPublicSimulationWithAllPolicies(t *testing.T) {
	dep := testDeployment(t)
	sc := &Scenario{
		Query:     dep.Query,
		Rates:     map[string]Profile{},
		Sels:      make([]Profile, len(dep.Query.Ops)),
		Cluster:   dep.Cluster,
		BatchSize: 20,
	}
	for _, s := range dep.Query.Streams {
		sc.Rates[s] = ConstProfile(dep.Query.Rates[s])
	}
	for i := range sc.Sels {
		sc.Sels[i] = ConstProfile(dep.Query.Ops[i].Sel)
	}

	rod, err := NewROD(dep)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDYN(dep, DefaultDYNConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{dep.NewPolicy(20), rod, dyn} {
		res, err := simulate(dep, sc, pol, 200)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Produced <= 0 {
			t.Fatalf("%s produced nothing", pol.Name())
		}
	}
}

func TestPublicEngine(t *testing.T) {
	dep := testDeployment(t)
	ctx := context.Background()
	pipe, err := Open(ctx, dep, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dep.Query.Streams {
		b := &Batch{Stream: name}
		for i := 0; i < 10; i++ {
			b.Append(&Tuple{Stream: name, Seq: uint64(i), Key: int64(i % 3), Vals: []float64{50}})
		}
		if err := pipe.Ingest(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := pipe.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ingested == 0 {
		t.Fatal("engine ingested nothing")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	tabs, ok := RunExperiment("table2", true)
	if !ok || len(tabs) == 0 {
		t.Fatal("table2 failed")
	}
	if FormatTables(tabs) == "" {
		t.Fatal("empty formatting")
	}
	if _, ok := RunExperiment("nope", true); ok {
		t.Fatal("unknown experiment should report !ok")
	}
}

func TestPublicOptimizerAccess(t *testing.T) {
	dep := testDeployment(t)
	center := dep.Space.At(dep.Space.Center())
	plan, c := BestPlanAt(dep, center)
	if plan == nil || c <= 0 {
		t.Fatal("BestPlanAt failed")
	}
	if got := PlanCostAt(dep, plan, center); got != c {
		t.Fatalf("PlanCostAt %v != optimizer cost %v", got, c)
	}
}

func TestPublicFeeds(t *testing.T) {
	stock := StockFeed(DefaultGenConfig(), 120, 1)
	if len(stock) == 0 {
		t.Fatal("no stock sources")
	}
	sensor := SensorFeed(DefaultGenConfig(), 30, 2)
	if len(sensor) == 0 {
		t.Fatal("no sensor sources")
	}
	if !stock[0].AppendNext(AcquireBatch(stock[0].Name, stock[0].Arity())) {
		t.Fatal("stock source dead")
	}
}

func TestPublicStaticEngine(t *testing.T) {
	q := NewNWayJoin("Q", 3, 2)
	dep, err := Optimize(q, []Dim{SelDim(0, q.Ops[0].Sel, 3)}, NewCluster(2, 500), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pipe, err := Open(ctx, dep, &StaticPolicy{Plan: Plan{0, 1, 2}, Assign: []int{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{Stream: "S1"}
	b.Append(&Tuple{Stream: "S1", Key: 1, Vals: []float64{10}})
	if err := pipe.Ingest(ctx, b); err != nil {
		t.Fatal(err)
	}
	rep, err := pipe.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 1 || rep.Policy != "STATIC" || rep.PlanCount() != 1 {
		t.Fatalf("batches = %d under %s on %d plans", rep.Batches, rep.Policy, rep.PlanCount())
	}
}
