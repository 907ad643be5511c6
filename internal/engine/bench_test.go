package engine

import (
	"fmt"
	"math"
	"math/rand"
	stdruntime "runtime"
	"testing"

	"rld/internal/chaos"
	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stream"
)

// buildBenchBatches pre-generates a join-heavy workload: S2 batches that
// fill the 60 s window, then S1 probe batches whose tuples each fan out to
// several matches. Returned separately so the window warm-up can stay
// outside the timed region.
func buildBenchBatches(q *query.Query, probeBatches, batchSize int) (warm, probes []*stream.Batch) {
	mkSource := func(name string, seed int64) *gen.Source {
		return gen.NewSource(name,
			gen.ConstProfile(100), // dense: the window stays populated
			gen.KeyDist{Cold: 256},
			gen.Uniform{A: 0, B: 100}, seed)
	}
	s2 := mkSource("S2", 7)
	for i := 0; i < 40; i++ {
		b := stream.NewSizedBatch("S2", s2.Arity(), batchSize)
		for j := 0; j < batchSize; j++ {
			s2.AppendNext(b)
		}
		warm = append(warm, b)
	}
	s1 := mkSource("S1", 11)
	for i := 0; i < probeBatches; i++ {
		b := stream.NewSizedBatch("S1", s1.Arity(), batchSize)
		for j := 0; j < batchSize; j++ {
			s1.AppendNext(b)
		}
		probes = append(probes, b)
	}
	return warm, probes
}

// benchThroughput drives probe batches through a 2-node engine with the
// given worker count and reports tuples/second. The acceptance comparison
// for the sharded-engine refactor is workers=1 (the seed's one goroutine
// per node) versus workers=GOMAXPROCS.
func benchThroughput(b *testing.B, workers int) {
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9 // keep most probes alive through the selection

	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.MaxFanout = 8

	const batchSize = 100
	warm, probes := buildBenchBatches(q, 64, batchSize)

	b.ReportAllocs()
	tuples := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		e.Start()
		for _, w := range warm {
			if err := e.Ingest(w); err != nil {
				b.Fatal(err)
			}
		}
		e.Drain()
		b.StartTimer()
		for _, p := range probes {
			if err := e.Ingest(p); err != nil {
				b.Fatal(err)
			}
			tuples += batchSize
		}
		e.Drain()
		b.StopTimer()
		if res := e.Stop(); res.Produced == 0 {
			b.Fatal("benchmark produced nothing")
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkEngineThroughput measures the sharded multi-worker engine at
// GOMAXPROCS workers per node against the single-worker (seed-equivalent)
// configuration. Run with:
//
//	go test ./internal/engine -bench EngineThroughput -benchtime 2x
func BenchmarkEngineThroughput(b *testing.B) {
	// Stable sub-benchmark names ("max", not the numeric GOMAXPROCS), so
	// results compare across machines with different core counts.
	for _, c := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=max", stdruntime.GOMAXPROCS(0)},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchThroughput(b, c.workers)
		})
	}
}

// BenchmarkChaosRecovery measures one full crash→park→recover→drain cycle
// on the join node: snapshot the window, kill the pool, ingest probes
// against the dead node (parked), then recover (checkpoint restore +
// replay) and drain — the failure path's benchmark. Run with:
//
//	go test ./internal/engine -bench ChaosRecovery -benchtime 3x
func BenchmarkChaosRecovery(b *testing.B) {
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9

	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.MaxFanout = 8

	const batchSize = 100
	warm, probes := buildBenchBatches(q, 32, batchSize)

	b.ReportAllocs()
	tuples := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		e.Start()
		for _, w := range warm {
			if err := e.Ingest(w); err != nil {
				b.Fatal(err)
			}
		}
		e.Drain()
		b.StartTimer()
		e.Checkpoint()
		if err := e.Crash(1, chaos.Checkpoint); err != nil {
			b.Fatal(err)
		}
		for _, p := range probes {
			if err := e.Ingest(p); err != nil {
				b.Fatal(err)
			}
			tuples += batchSize
		}
		e.Drain() // parked work excluded: must return with the node down
		if err := e.Recover(1); err != nil {
			b.Fatal(err)
		}
		e.Drain()
		b.StopTimer()
		res := e.Stop()
		if res.Produced == 0 || res.Restores != 1 || res.TuplesLost != 0 {
			b.Fatalf("recovery run: produced=%v restores=%d lost=%v",
				res.Produced, res.Restores, res.TuplesLost)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/s")
}

// benchIngestDurable drives a sustained stream of window-filling S2
// batches — the path that pays the WAL tax — through a 2-node engine.
// Fresh batches are generated outside the timed region each iteration so
// no tuple is ever a dedup no-op; the timed region is admission + WAL
// append + group-commit fsync + window insert.
func benchIngestDurable(b *testing.B, walDir string) {
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9

	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.WALDir = walDir

	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.Start()
	src := gen.NewSource("S2",
		gen.ConstProfile(100),
		gen.KeyDist{Cold: 256},
		gen.Uniform{A: 0, B: 100}, 7)
	const batchSize, perIter = 100, 16

	b.ReportAllocs()
	tuples := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batches := make([]*stream.Batch, perIter)
		for j := range batches {
			batches[j] = stream.NewSizedBatch("S2", src.Arity(), batchSize)
			for k := 0; k < batchSize; k++ {
				src.AppendNext(batches[j])
			}
		}
		b.StartTimer()
		for _, w := range batches {
			if err := e.Ingest(w); err != nil {
				b.Fatal(err)
			}
			tuples += batchSize
		}
		e.Drain()
	}
	b.StopTimer()
	if res := e.Stop(); res.Ingested == 0 {
		b.Fatal("benchmark ingested nothing")
	}
	b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkIngestDurable prices exactly-once durability on the ingest
// path: the same window-insert workload with the WAL off (the fast path)
// and on (every batch logged and fsync'd before insertion, with dedup
// bookkeeping). Run with:
//
//	go test ./internal/engine -bench IngestDurable -benchtime 10x
func BenchmarkIngestDurable(b *testing.B) {
	b.Run("wal=off", func(b *testing.B) { benchIngestDurable(b, "") })
	b.Run("wal=on", func(b *testing.B) { benchIngestDurable(b, b.TempDir()) })
}

// restoreFixture is engine_join's join window at rest (see joinWindow) and
// the snapshot of that window. age lifts the operator's high-water
// timestamp that many seconds past the snapshot's newest row, as the
// batches ingested between a checkpoint and a crash do, so that a restore
// finds the snapshot's oldest rows already below the cutoff. durable turns
// on exactly-once mode, in which a restore also rebuilds the dedup set.
func restoreFixture(tb testing.TB, age float64, durable bool) (core *NodeCore, op int, snap *stream.Batch) {
	cfg := DefaultConfig()
	if durable {
		cfg.WALDir = tb.TempDir()
	}
	core, op = joinWindow(tb, cfg, 1)
	snap = core.SnapshotOp(op)
	core.ops[op].advanceTs(float64(snap.MaxTs()) + age)
	return core, op, snap
}

// joinWindow is engine_join's join window (bench/rldperf): a 3-way join
// under cfg at one worker, whose S2 operator, op, holds a full 12 s span at
// 1 000 tuples a second over joinKeys keys — about 12 000 rows of one
// payload value, about three to a key — in the given number of shards.
func joinWindow(tb testing.TB, cfg Config, shards int) (core *NodeCore, op int) {
	const span, rate, batch = 12, 1000, 100
	q := query.NewNWayJoin("RS", 3, rate)
	q.WindowSeconds = span
	cfg.Workers = 1
	core, err := newNodeCore(q, cfg, shards)
	if err != nil {
		tb.Fatal(err)
	}
	op = 1 // joins S2
	rng := rand.New(rand.NewSource(5))
	for seq := 0; seq < (span+1)*rate; {
		b := stream.NewSizedBatch("S2", 1, batch)
		for range batch {
			ts := stream.Time(float64(seq) / rate)
			b.AppendRow(uint64(seq), ts, rng.Int63n(joinKeys), ts)[0] = rng.Float64() * 100
			seq++
		}
		if err := core.Insert(op, b); err != nil {
			tb.Fatal(err)
		}
	}
	return core, op
}

// joinKeys is the key domain of joinWindow's rows.
const joinKeys = 4096

// joinStageCases are BenchmarkJoinStage's shapes, each at one shard and at
// the sixteen a multi-worker node gets: engine_join's stage (100 probes,
// keys from the window's domain, about three matches each) and
// engine_ingest's (11 probes, keys from five times the domain, about 0.6
// matches each).
var joinStageCases = []struct {
	name   string
	probes int
	keys   int64
	shards int
}{
	{"engine_join", 100, joinKeys, 1},
	{"engine_join,shards=16", 100, joinKeys, numShards},
	{"engine_ingest", 11, 5 * joinKeys, 1},
	{"engine_ingest,shards=16", 11, 5 * joinKeys, numShards},
}

// benchJoinStage runs one join stage per op over joinWindow's S2 window at
// MaxFanout 8 with the given shard count: a batch of probes S1 tuples, keys
// drawn below keys (64 batches in turn, so that the chains a batch walks
// are not the last one's), seeded into a block as admission seeds them —
// then count pass, block, fill pass, and the release of both blocks. It
// reports the cost per probe.
func benchJoinStage(b *testing.B, probes int, keys int64, shards int) {
	cfg := DefaultConfig()
	cfg.MaxFanout = 8
	core, op := joinWindow(b, cfg, shards)
	ts := stream.Time(math.Float64frombits(core.ops[op].maxTs.Load()))
	rng := rand.New(rand.NewSource(9))
	batches := make([]*stream.Batch, 64)
	for i := range batches {
		batches[i] = stream.NewSizedBatch("S1", 1, probes)
		for j := range probes {
			batches[i].AppendRow(uint64(j), ts, rng.Int63n(keys), ts)[0] = float64(j)
		}
	}
	sch, results, round := core.Schema(), 0, 0
	step := func() {
		round++
		in := batches[round%len(batches)]
		ps := sch.AcquireBlock(probes, probes).SeedRows(core.NewPartials(), 0, in)
		out := core.runStage(op, ps)
		results += len(out)
		core.ReleasePartials(out)
	}
	// Collect the fixture's garbage first: a collection that ends in the
	// timed steps drops the per-P caches of every pool they draw from, and
	// the next Get or Put allocates them again.
	stdruntime.GC()
	for range 50 {
		step() // fill the pools
	}
	if results == 0 {
		b.Fatal("the join stage emitted nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probes), "ns/probe")
}

// BenchmarkJoinStage is a join stage on its own, in each of joinStageCases'
// shapes (see benchJoinStage).
//
//	go test ./internal/engine -run '^$' -bench JoinStage
func BenchmarkJoinStage(b *testing.B) {
	for _, c := range joinStageCases {
		b.Run(c.name, func(b *testing.B) { benchJoinStage(b, c.probes, c.keys, c.shards) })
	}
}

// BenchmarkRestoreOp restores engine_join's join window from its snapshot
// into the ring it was taken from, sized already, as the in-process
// engine's recovery does, and reports the cost per snapshot row. At age 0s
// every row is loaded; at 3s a quarter of them lie below the operator's
// cutoff and are skipped. With wal=on the restore also records every
// snapshot row in the operator's dedup set.
//
//	go test ./internal/engine -run '^$' -bench RestoreOp
func BenchmarkRestoreOp(b *testing.B) {
	for _, durable := range []bool{false, true} {
		for _, age := range []float64{0, 3} {
			name := fmt.Sprintf("age=%gs", age)
			if durable {
				name += ",wal=on"
			}
			b.Run(name, func(b *testing.B) {
				core, op, snap := restoreFixture(b, age, durable)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.RestoreOp(op, snap)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(snap.Len()), "ns/row")
			})
		}
	}
}
