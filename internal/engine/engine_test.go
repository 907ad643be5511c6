package engine

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
	"rld/internal/stream"
)

// staticChooser always returns one plan.
type staticChooser struct{ Plan query.Plan }

func (s staticChooser) Choose(stats.Snapshot) query.Plan { return s.Plan }

// twoWay builds a tiny 2-stream join query: one select on S1, one join on
// S2.
func twoWay() *query.Query {
	q := query.NewNWayJoin("E", 2, 5)
	return q
}

// feed pushes n batches per stream of the given size through the engine.
func feed(t *testing.T, e *Engine, q *query.Query, batches, size int, sel float64) {
	t.Helper()
	seed := int64(11)
	srcs := make([]*gen.Source, len(q.Streams))
	for i, name := range q.Streams {
		srcs[i] = gen.NewSource(name,
			gen.ConstProfile(50),
			gen.KeyDist{Target: gen.ConstProfile(sel), Cold: 512},
			gen.Uniform{A: 0, B: 100}, seed+int64(i))
	}
	for b := 0; b < batches; b++ {
		for i := range srcs {
			batch := stream.NewSizedBatch(q.Streams[i], srcs[i].Arity(), size)
			for j := 0; j < size; j++ {
				if !srcs[i].AppendNext(batch) {
					t.Fatal("source dried up")
				}
			}
			if err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEngineEndToEndProducesJoins(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 20, 50, 0.5)
	res := e.Stop()
	if res.Ingested != 2*20*50 {
		t.Fatalf("ingested %v", res.Ingested)
	}
	if res.Produced == 0 {
		t.Fatal("no join results with 0.5 key selectivity")
	}
	if res.Batches != 40 {
		t.Fatalf("batches = %d", res.Batches)
	}
	if res.MeanLatencyMS < 0 {
		t.Fatal("negative latency")
	}
	if res.PlanUse[query.Plan{0, 1}.Key()] != 40 {
		t.Fatalf("plan use = %v", res.PlanUse)
	}
}

func TestEngineSelectivityObserved(t *testing.T) {
	q := twoWay()
	q.Ops[0].Sel = 0.3 // select passes ~30% of Uniform(0,100)
	e, err := New(q, physical.Assignment{0, 0}, 1, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 40, 50, 0.4)
	e.Stop()
	// Selections report their own-stream pass fraction: Uniform(0,100)
	// payloads against threshold 0.3×100 pass ≈30% of the time.
	got := e.monitor.Snapshot().Sels[0]
	if math.Abs(got-0.3) > 0.08 {
		t.Fatalf("observed select selectivity %v, want ≈0.3", got)
	}
}

func TestEngineDynamicChooserSwitchesPlans(t *testing.T) {
	q := twoWay()
	plans := []query.Plan{{0, 1}, {1, 0}}
	var n int64
	var mu sync.Mutex
	chooser := ChooserFunc(func(stats.Snapshot) query.Plan {
		mu.Lock()
		defer mu.Unlock()
		n++
		return plans[n%2]
	})
	e, err := New(q, physical.Assignment{0, 1}, 2, chooser, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 10, 20, 0.5)
	res := e.Stop()
	if len(res.PlanUse) != 2 {
		t.Fatalf("expected both plans used: %v", res.PlanUse)
	}
}

func TestEngineRejectsBadInputs(t *testing.T) {
	q := twoWay()
	if _, err := New(q, physical.NewAssignment(2), 2, nil, DefaultConfig()); err == nil {
		t.Fatal("incomplete placement must error")
	}
	if _, err := New(q, physical.Assignment{0, 5}, 2, nil, DefaultConfig()); err == nil {
		t.Fatal("out-of-range node must error")
	}
	bad := twoWay()
	bad.Ops[0].Sel = 2
	if _, err := New(bad, physical.Assignment{0, 1}, 2, nil, DefaultConfig()); err == nil {
		t.Fatal("invalid query must error")
	}
}

func TestEngineIngestBeforeStartErrors(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(stream.NewBatch("S1")); err == nil {
		t.Fatal("ingest before Start must error")
	}
	e.Start()
	defer e.Stop()
	bad := staticChooser{Plan: query.Plan{9, 9}}
	e2, _ := New(q, physical.Assignment{0, 1}, 2, bad, DefaultConfig())
	e2.Start()
	defer e2.Stop()
	b := stream.NewBatch("S1")
	b.Append(&stream.Tuple{Stream: "S1", Key: 1, Vals: []float64{1}})
	if err := e2.Ingest(b); err == nil {
		t.Fatal("invalid chooser plan must error")
	}
}

func TestEngineStopIdempotent(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r1 := e.Stop()
	r2 := e.Stop()
	if r1.Ingested != r2.Ingested {
		t.Fatal("double Stop changed results")
	}
}

func TestEngineSelfSendNoDeadlock(t *testing.T) {
	// All operators on one single-worker node: the worker forwarding to
	// its own node's queue must not deadlock.
	q := query.NewNWayJoin("E", 3, 5)
	cfg := DefaultConfig()
	cfg.Workers = 1
	e, err := New(q, physical.Assignment{0, 0, 0}, 1, staticChooser{Plan: query.Plan{0, 1, 2}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 10, 30, 0.4)
	res := e.Stop()
	if res.Ingested == 0 {
		t.Fatal("nothing ingested")
	}
}

func TestEngineMaxFanoutBoundsBlowup(t *testing.T) {
	q := twoWay()
	cfg := DefaultConfig()
	cfg.MaxFanout = 2
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	// Hot keys: selectivity 1 → every probe matches the whole window.
	feed(t, e, q, 10, 50, 1.0)
	res := e.Stop()
	// With fanout 2 the output is at most 2 per surviving partial.
	if res.Produced > 2*res.Ingested {
		t.Fatalf("fanout cap violated: %v produced for %v ingested", res.Produced, res.Ingested)
	}
}

// TestEngineMonitorAccessible: the first control tick's offer reaches the
// monitor. Until then the monitor publishes the compile-time estimates;
// the tick offers the router's counters, stamped with the virtual clock.
func TestEngineMonitorAccessible(t *testing.T) {
	q := twoWay()
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, DefaultConfig(), runtime.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for ts := 1; ts <= 5; ts++ { // the batch at 5 crosses the first tick
		if snap := s.e.monitor.Snapshot(); snap.Time != 0 || snap.Sels[0] != q.Ops[0].Sel || snap.Rates["S1"] != q.Rates["S1"] {
			t.Fatalf("before the first tick the monitor holds %+v, want the estimates", snap)
		}
		if err := s.Ingest(ctx, flatBatch("S1", 10, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	// Every payload is 10, below the selection's threshold of 30.
	if snap := s.e.monitor.Snapshot(); snap.Time != 5 || snap.Sels[0] != 1 || snap.Rates["S1"] != 50 {
		t.Fatalf("after the first tick the monitor holds %+v, want 50 S1 tuples all passing at t=5", snap)
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestEngineConcurrentIngest(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	const feeders, batches, size = 4, 10, 30
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			src := gen.NewSource(q.Streams[f%2],
				gen.ConstProfile(50),
				gen.KeyDist{Target: gen.ConstProfile(0.4), Cold: 512},
				gen.Uniform{A: 0, B: 100}, int64(f))
			for i := 0; i < batches; i++ {
				b := stream.NewSizedBatch(src.Name, src.Arity(), size)
				for j := 0; j < size; j++ {
					src.AppendNext(b)
				}
				if err := e.Ingest(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	wg.Wait()
	res := e.Stop()
	if res.Ingested != feeders*batches*size {
		t.Fatalf("ingested %v, want %d", res.Ingested, feeders*batches*size)
	}
	if res.Batches != feeders*batches {
		t.Fatalf("batches %d, want %d", res.Batches, feeders*batches)
	}
}

func TestEngineConcurrentStopsAgree(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 20, 50, 0.5)
	results := make([]*runtime.Report, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Stop()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i].Produced != results[0].Produced || results[i].Ingested != results[0].Ingested {
			t.Fatalf("racing Stops disagree: %+v vs %+v", results[i], results[0])
		}
	}
}

func TestEngineStopDuringConcurrentIngest(t *testing.T) {
	// Stop racing a concurrent Ingest must never panic or strand a
	// message: Ingest either completes its send before the pools retire
	// or observes the stopped flag and errors out.
	for round := 0; round < 25; round++ {
		q := twoWay()
		e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := gen.NewSource("S1", gen.ConstProfile(100),
				gen.KeyDist{Cold: 64}, gen.Uniform{A: 0, B: 100}, int64(round))
			for {
				b := stream.NewSizedBatch("S1", src.Arity(), 20)
				for j := 0; j < 20; j++ {
					src.AppendNext(b)
				}
				if err := e.Ingest(b); err != nil {
					return // engine stopped underneath us: expected
				}
			}
		}()
		e.Stop()
		wg.Wait()
	}
}

func TestEngineMigrateReroutes(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 0}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate(1, 1); err != nil {
		t.Fatal(err)
	}
	if a := e.Assignment(); a[1] != 1 || a[0] != 0 {
		t.Fatalf("assignment after migrate = %v", a)
	}
	if err := e.Migrate(9, 0); err == nil {
		t.Fatal("unknown op must error")
	}
	if err := e.Migrate(0, 9); err == nil {
		t.Fatal("unknown node must error")
	}
	// Traffic keeps flowing after a reroute.
	e.Start()
	feed(t, e, q, 10, 20, 0.5)
	res := e.Stop()
	if res.Ingested == 0 || res.Produced == 0 {
		t.Fatalf("no traffic after migrate: %+v", res)
	}
}

// TestEngineMatchesSimSelectivity cross-validates the two substrates: the
// live engine's observed selection pass-rate converges to the same value
// the simulator's cost model assumes.
func TestEngineMatchesSimSelectivity(t *testing.T) {
	q := query.NewNWayJoin("X", 2, 5)
	q.Ops[0].Sel = 0.4
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	rng := rand.New(rand.NewSource(3))
	ts := 0.0
	for b := 0; b < 60; b++ {
		for _, s := range q.Streams {
			batch := &stream.Batch{Stream: s}
			for j := 0; j < 40; j++ {
				ts += 0.001
				batch.Append(&stream.Tuple{
					Stream: s, Ts: stream.Time(ts), Key: rng.Int63n(300),
					Vals: []float64{rng.Float64() * 100},
				})
			}
			if err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Stop()
	if got := e.monitor.Snapshot().Sels[0]; math.Abs(got-0.4) > 0.06 {
		t.Fatalf("engine observed %v, cost model assumes 0.4", got)
	}
}
