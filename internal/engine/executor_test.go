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
	"rld/internal/stream"
)

func TestEngineShardsRoundedToPowerOfTwo(t *testing.T) {
	q := twoWay()
	cfg := DefaultConfig()
	cfg.Shards = 5
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.core.ops[0].shards); got != 8 {
		t.Fatalf("shards = %d, want 8", got)
	}
}

func TestEngineConcurrentIngest(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
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
				b := stream.NewBatch(src.Name)
				for j := 0; j < size; j++ {
					tu, _ := src.Next()
					b.Append(tu)
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
		t.Fatalf("ingested %d, want %d", res.Ingested, feeders*batches*size)
	}
	if res.Batches != feeders*batches {
		t.Fatalf("batches %d, want %d", res.Batches, feeders*batches)
	}
}

func TestEngineConcurrentStopsAgree(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 20, 50, 0.5)
	results := make([]Results, 4)
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
		e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
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
				b := stream.NewBatch("S1")
				for j := 0; j < 20; j++ {
					tu, _ := src.Next()
					b.Append(tu)
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
	e, err := New(q, physical.Assignment{0, 0}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
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

func TestEngineProbeExpiresStaleShards(t *testing.T) {
	// One cold shard must not serve tuples older than the window span
	// even if that shard never receives another insert.
	q := twoWay() // op1 joins on S2, window 60 s
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.MaxFanout = 0
	e, err := New(q, physical.Assignment{0, 0}, 1, StaticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	mkBatch := func(streamName string, key int64, ts float64) *stream.Batch {
		b := stream.NewBatch(streamName)
		b.Append(&stream.Tuple{Stream: streamName, Ts: stream.Time(ts), Key: key, Vals: []float64{1}})
		return b
	}
	// Key 1 lands in shard 1; key 4 lands in shard 0 (4 shards).
	if err := e.Ingest(mkBatch("S2", 1, 10)); err != nil {
		t.Fatal(err)
	}
	// 500 s later, an insert to shard 0 advances the op's high-water mark.
	if err := e.Ingest(mkBatch("S2", 4, 510)); err != nil {
		t.Fatal(err)
	}
	// An S1 probe for key 1 must find nothing: the tuple in shard 1 is
	// 500 s stale even though its shard saw no insert since.
	if err := e.Ingest(mkBatch("S1", 1, 511)); err != nil {
		t.Fatal(err)
	}
	res := e.Stop()
	// The two S2 batches pass through the pipeline untouched (own-stream
	// join, foreign-stream selection) and reach the sink; the S1 probe
	// must contribute nothing on top of them.
	if res.Produced != 2 {
		t.Fatalf("produced %d results, want 2 (stale shard must not match)", res.Produced)
	}
}

// recordingPolicy is a static policy that scripts one migration and records
// Rebalance invocations.
type recordingPolicy struct {
	runtime.StaticPolicy
	ticks    []float64
	migrated bool
}

func (p *recordingPolicy) Rebalance(t float64, loads []float64, assign physical.Assignment) *runtime.Migration {
	p.ticks = append(p.ticks, t)
	if !p.migrated {
		p.migrated = true
		return &runtime.Migration{Op: 1, To: 1, Downtime: 0.25}
	}
	return nil
}

func TestEngineExecutorRunsPolicyWithTicks(t *testing.T) {
	q := twoWay()
	srcs := make([]*gen.Source, len(q.Streams))
	for i, s := range q.Streams {
		srcs[i] = gen.NewSource(s,
			gen.ConstProfile(20),
			gen.KeyDist{Target: gen.ConstProfile(0.1), Cold: 256},
			gen.Uniform{A: 0, B: 100}, int64(i)+3)
	}
	pol := &recordingPolicy{StaticPolicy: runtime.StaticPolicy{
		PolicyName: "SCRIPT",
		Plan:       query.Plan{0, 1},
		Assign:     physical.Assignment{0, 0},
	}}
	ses, err := OpenSession(q, 2, pol, SessionOptions{Config: DefaultConfig(), TickEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runtime.Replay(context.Background(), ses, runtime.NewSourceFeed(srcs, 25, 60))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "SCRIPT" || rep.Substrate != "engine" {
		t.Fatalf("report header %q/%q", rep.Policy, rep.Substrate)
	}
	if rep.Ingested == 0 || rep.Batches == 0 {
		t.Fatalf("nothing ran: %+v", rep)
	}
	if rep.Migrations != 1 || rep.MigrationDowntime != 0.25 {
		t.Fatalf("migrations = %d downtime = %v", rep.Migrations, rep.MigrationDowntime)
	}
	if len(pol.ticks) < 4 {
		t.Fatalf("expected ≈5 control ticks over 60 s at TickEvery=10, got %v", pol.ticks)
	}
	if rep.PlanCount() != 1 {
		t.Fatalf("static plan count = %d", rep.PlanCount())
	}
}

func TestEngineExecutorRejectsMissingInputs(t *testing.T) {
	if _, err := OpenSession(nil, 1, &runtime.StaticPolicy{}, SessionOptions{}); err == nil {
		t.Fatal("session without a query must error")
	}
	// A policy whose placement does not fit the node count must error.
	pol := &runtime.StaticPolicy{Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 5}}
	if _, err := OpenSession(twoWay(), 1, pol, SessionOptions{Config: DefaultConfig()}); err == nil {
		t.Fatal("out-of-range placement must error")
	}
}

func TestEngineObservedSelWithAtomicCounters(t *testing.T) {
	if got := ObservedSel(0.7, 31, 5); got != 0.7 {
		t.Fatalf("unprimed ObservedSel = %v, want the estimate", got)
	}
	if got := ObservedSel(0.7, 64, 16); got != 0.25 {
		t.Fatalf("ObservedSel = %v, want 0.25", got)
	}
}

// TestEngineMatchesSimSelectivity cross-validates the two substrates: the
// live engine's observed selection pass-rate converges to the same value
// the simulator's cost model assumes.
func TestEngineMatchesSimSelectivity(t *testing.T) {
	q := query.NewNWayJoin("X", 2, 5)
	q.Ops[0].Sel = 0.4
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
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
	res := e.Stop()
	if math.Abs(res.ObservedSels[0]-0.4) > 0.06 {
		t.Fatalf("engine observed %v, cost model assumes 0.4", res.ObservedSels[0])
	}
}
