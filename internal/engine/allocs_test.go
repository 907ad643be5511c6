//go:build !race

package engine

import (
	"context"
	stdruntime "runtime"
	"testing"

	"rld/internal/alloctest"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
)

// TestSessionResultDeliveryAllocs bounds the garbage of one batch's whole
// trip — admission, two join stages, sink, delivery to a Results subscriber
// — at 100-tuple batches with three matches per probe: the blocks and
// slices in between all come from pools their consumers refill, and the
// emission is the last stage's block handed over as it is, so what is left
// is the slice of pointers delivered, the block that has to replace the
// stolen one (its header and three slabs), and the occasional GC-driven pool
// refill. (The race detector changes allocation behaviour; the file is
// excluded under -race.)
func TestSessionResultDeliveryAllocs(t *testing.T) {
	q, warm, probes := probeFeed(100, 3, 1, 100)
	cfg := DefaultConfig()
	cfg.Workers = 1
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1, 2}, Assign: physical.Assignment{0, 0, 0}}
	s, err := OpenSession(q, 1, pol, cfg, runtime.SessionOptions{ResultBuffer: 4, MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range warm {
		if err := s.Ingest(ctx, b); err != nil {
			t.Fatal(err)
		}
		s.e.Drain()
	}
	<-s.Results() // warm's own emission
	results := 0
	step := func() {
		if err := s.Ingest(ctx, probes[0]); err != nil {
			t.Fatal(err)
		}
		results = len((<-s.Results()).Tuples)
	}
	for i := 0; i < 50; i++ {
		step() // fill the pools
	}
	if results != 300 {
		t.Fatalf("a probe batch produced %d results, want 300", results)
	}
	acq0, rec0 := s.e.core.Schema().BlockCounts()
	delivered := testing.AllocsPerRun(200, step)
	if delivered > 8 {
		t.Fatalf("%v allocations per batch with a subscriber attached, want <= 8", delivered)
	}
	if acq, rec := s.e.core.Schema().BlockCounts(); (acq-acq0)-(rec-rec0) != 201 {
		t.Fatalf("201 delivered emissions took %d blocks out of circulation, want one each", (acq-acq0)-(rec-rec0))
	}
	// A subscriber that stopped reading: once the buffer is full an emission
	// is dropped before it is stolen, so the block stays in the pool.
	dropped := testing.AllocsPerRun(200, func() {
		if err := s.Ingest(ctx, probes[0]); err != nil {
			t.Fatal(err)
		}
		s.e.Drain()
	})
	t.Logf("allocations per batch: %v delivered, %v dropped", delivered, dropped)
	if dropped > delivered-3 {
		t.Fatalf("%v allocations per dropped emission against %v per delivered one: the block was stolen first", dropped, delivered)
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJoinStageAllocs: an intermediate join stage in steady state — probes
// arriving as rows of one block, three matches each leaving as rows of
// another, both blocks and both partials slices back in their pools by the
// end — allocates nothing.
func TestJoinStageAllocs(t *testing.T) {
	q, warm, probes := probeFeed(100, 3, 1, 100)
	cfg := DefaultConfig()
	cfg.Workers = 1
	core, err := NewNodeCore(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Insert(1, warm[0]); err != nil {
		t.Fatal(err)
	}
	b, results := probes[0], 0
	step := func() {
		blk := core.Schema().AcquireBlock(b.Len(), b.Len()*b.Width())
		ps := core.NewPartials()
		for i := 0; i < b.Len(); i++ {
			ps = append(ps, blk.Seed(0, b.Seq[i], b.Ts[i], b.Key[i], b.Arr[i], b.ValsAt(i)))
		}
		out, err := core.ProcessStage(1, ps)
		if err != nil {
			t.Fatal(err)
		}
		results = len(out)
		core.ReleasePartials(out)
	}
	for i := 0; i < 50; i++ {
		step() // fill the pools
	}
	if results != 300 {
		t.Fatalf("the stage emitted %d rows, want 300", results)
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("steady-state join stage made %v allocations per batch, want 0", n)
	}
}

// TestBenchmarkAllocs holds each engine benchmark to its allocation bound —
// the allocs/op last recorded for it at -benchtime 3x, × 1.25 + 8 — by
// running the benchmark's own body. bench/rldperf referees time; this is
// the only other thing a benchmark here is gated on.
func TestBenchmarkAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound int64
		body  func(*testing.B)
	}{
		{"EngineThroughput/workers=1", 511, func(b *testing.B) { benchThroughput(b, 1) }},
		{"EngineThroughput/workers=max", 551, func(b *testing.B) { benchThroughput(b, stdruntime.GOMAXPROCS(0)) }},
		{"ChaosRecovery", 291, BenchmarkChaosRecovery},
		// The WAL-off side only: what the dedup hooks cost the path that
		// does not use them.
		{"IngestDurable/wal=off", 275, func(b *testing.B) { benchIngestDurable(b, "") }},
	} {
		alloctest.Bound(t, c.name, "3x", c.bound, c.body)
	}
	// The join stage alone, in every shape: its blocks, partials and
	// scratch all come back to their pools, so it holds at nothing.
	for _, c := range joinStageCases {
		alloctest.Bound(t, "JoinStage/"+c.name, "3x", 0, func(b *testing.B) { benchJoinStage(b, c.probes, c.keys, c.shards) })
	}
}

// TestRestoreOpAllocs: restoring engine_join's join window into the ring it
// was snapshotted from — sized already, as in the in-process engine's
// recovery — allocates nothing: the ring keeps its capacity across ClearOp,
// and the one-shard run and the rest of the scratch come from the pool. In
// durable mode neither does the dedup set, which ClearOp empties in place.
func TestRestoreOpAllocs(t *testing.T) {
	for _, durable := range []bool{false, true} {
		core, op, snap := restoreFixture(t, 3, durable)
		restore := func() { core.RestoreOp(op, snap) }
		for i := 0; i < 5; i++ {
			restore() // fill the pool, grow the dedup set
		}
		if n := testing.AllocsPerRun(50, restore); n != 0 {
			t.Fatalf("durable=%v: a restore into a sized ring made %v allocations, want 0", durable, n)
		}
	}
}
