package engine

import (
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"slices"
	"sync"
	"testing"

	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stream"
)

// TestSnapshotClearRestoreRoundTrip is the checkpoint path end to end on a
// sharded operator: SnapshotOp gathers four shard windows (rings grown and
// wrapped, keys positive and negative) into one batch sized once, ClearOp
// empties them, and RestoreOp re-inserts the snapshot through the shard
// grouping — after which every probe must return exactly what it returned
// before, in the same order, and a second snapshot must equal the first.
func TestSnapshotClearRestoreRoundTrip(t *testing.T) {
	q := query.NewNWayJoin("RT", 2, 100) // op 0 selects on S1, op 1 joins S2
	cfg := DefaultConfig()
	cfg.Workers = 1
	core, err := newNodeCore(q, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const op, rows, batch, keys = 1, 6000, 50, 1500
	rng := rand.New(rand.NewSource(5))
	step := 3 * q.WindowSeconds / rows // three spans of data: two thirds of it expires
	for i := 0; i < rows; i += batch {
		b := stream.NewSizedBatch("S2", 2, batch)
		for j := i; j < i+batch; j++ {
			ts := stream.Time(float64(j) * step)
			row := b.AppendRow(uint64(j), ts, rng.Int63n(keys)-keys/2, ts)
			row[0], row[1] = float64(j), rng.Float64()
		}
		if err := core.Insert(op, b); err != nil {
			t.Fatal(err)
		}
	}
	// probe joins one S1 tuple per key against op 1 and lists every match.
	probe := func() []string {
		ps := core.NewPartials()
		for k := int64(-keys / 2); k < keys/2; k++ {
			j := core.Schema().Acquire()
			j.SetPart(0, uint64(k+keys), stream.Time(3*q.WindowSeconds), k, 0, []float64{1})
			ps = append(ps, j)
		}
		out, err := core.ProcessStage(op, ps)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, j := range out {
			p, _ := j.Part(1)
			got = append(got, fmt.Sprint(j.Key(), p.Seq, p.Ts, p.Arrival, p.Vals))
		}
		core.ReleasePartials(out)
		return got
	}
	before := probe()
	live := int(core.ops[op].winLen.Load())
	if want := rows / 3; live < want-batch || live > want+batch || len(before) != live {
		t.Fatalf("%d buffered rows and %d matches, want both about %d", live, len(before), want)
	}

	snap := core.SnapshotOp(op)
	if snap.Len() != live || snap.Width() != 2 {
		t.Fatalf("snapshot holds %d rows of width %d, want %d of width 2", snap.Len(), snap.Width(), live)
	}
	if cap(snap.Seq) != live || cap(snap.Vals) != 2*live {
		t.Fatalf("snapshot columns have capacity %d/%d for %d rows: not sized once from the buffered count",
			cap(snap.Seq), cap(snap.Vals), live)
	}
	core.ClearOp(op)
	if got := probe(); len(got) != 0 || core.ops[op].winLen.Load() != 0 {
		t.Fatalf("after ClearOp: %d matches, %d buffered rows", len(got), core.ops[op].winLen.Load())
	}
	core.RestoreOp(op, snap)
	if after := probe(); !slices.Equal(after, before) {
		t.Fatalf("probes after restore differ: %d matches, were %d", len(after), len(before))
	}
	again := core.SnapshotOp(op)
	if !slices.Equal(again.Seq, snap.Seq) || !slices.Equal(again.Ts, snap.Ts) || !slices.Equal(again.Key, snap.Key) ||
		!slices.Equal(again.Arr, snap.Arr) || !slices.Equal(again.Vals, snap.Vals) {
		t.Fatal("a snapshot of the restored operator differs from the snapshot it was restored from")
	}
	if empty := core.SnapshotOp(0); empty != nil {
		t.Fatalf("the selection carries no state, yet SnapshotOp returned %d rows", empty.Len())
	}
}

// joinedFields is everything readable off a result tuple, as plain values.
func joinedFields(j *stream.Joined, slots int) string {
	s := fmt.Sprint(j.Ts, j.Arrival, j.Key(), j.TupleIDs(nil))
	for slot := 0; slot < slots; slot++ {
		p, ok := j.Part(slot)
		s += fmt.Sprint("|", ok, p.Seq, p.Ts, p.Key, p.Arrival, p.Vals)
	}
	return s
}

// TestJoinStageEqualsSetPartChain: the join kernel sizes one block from its
// probe pass and writes every match into it; the rows it emits must equal,
// field for field and in order, the Acquire+SetPart chain over the same
// probe and the same matches — for payload widths 0–4, for keys with no
// match at all, with MaxFanout cutting the longer match lists short, and
// whether the probes arrive as singletons or as rows of a block.
func TestJoinStageEqualsSetPartChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for width := 0; width <= 4; width++ {
		q := query.NewNWayJoin("EQ", 2, 100) // op 0 selects on S1, op 1 joins S2
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.MaxFanout = 3
		core, err := newNodeCore(q, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		const keys = 40
		// Key k has k%6 window tuples: 0 to 5 matches against a fanout of 3.
		win := stream.NewSizedBatch("S2", width, 0)
		byKey := map[int64][]int{}
		for k := int64(0); k < keys; k++ {
			for d := int64(0); d < k%6; d++ {
				i := win.Len()
				row := win.AppendRow(uint64(1000+i), stream.Time(10+rng.Intn(20)), k, stream.Time(rng.Intn(20)))
				for v := range row {
					row[v] = rng.Float64()
				}
				byKey[k] = append(byKey[k], i)
			}
		}
		if err := core.Insert(1, win); err != nil {
			t.Fatal(err)
		}
		probeKeys := make([]int64, 60)
		for i := range probeKeys {
			probeKeys[i] = rng.Int63n(keys)
		}
		pvals := func(i int) []float64 { return []float64{float64(i), float64(-i)}[:i%3] }
		sch := core.Schema()
		var want []string
		for i, k := range probeKeys {
			ms := byKey[k]
			if len(ms) > cfg.MaxFanout {
				ms = ms[:cfg.MaxFanout]
			}
			for _, m := range ms {
				ref := sch.Acquire()
				ref.SetPart(0, uint64(i), 15, k, 5, pvals(i))
				ref.SetPart(1, win.Seq[m], win.Ts[m], k, win.Arr[m], win.ValsAt(m))
				want = append(want, joinedFields(ref, 2))
				ref.Release()
			}
		}
		for _, how := range []string{"singletons", "block"} {
			ps := core.NewPartials()
			var blk *stream.Block
			if how == "block" {
				nvals := 0
				for i := range probeKeys {
					nvals += len(pvals(i))
				}
				blk = sch.AcquireBlock(len(probeKeys), nvals)
			}
			for i, k := range probeKeys {
				if blk != nil {
					ps = append(ps, blk.Seed(0, uint64(i), 15, k, 5, pvals(i)))
					continue
				}
				j := sch.Acquire()
				j.SetPart(0, uint64(i), 15, k, 5, pvals(i))
				ps = append(ps, j)
			}
			out, err := core.ProcessStage(1, ps)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(want) {
				t.Fatalf("width %d, %s: %d rows out, want %d", width, how, len(out), len(want))
			}
			for i, j := range out {
				if got := joinedFields(j, 2); got != want[i] {
					t.Fatalf("width %d, %s: row %d = %s, want %s", width, how, i, got, want[i])
				}
			}
			core.ReleasePartials(out)
		}
		if acq, rec := sch.BlockCounts(); acq != rec {
			t.Fatalf("width %d: %d blocks acquired, %d recycled", width, acq, rec)
		}
	}
}

// TestEmptyStagesLeakNoBlock: a join stage whose every probe misses emits
// nothing, and so does a selection that drops every row; the batch ends
// there, and the blocks it came in must all be back in the pool.
func TestEmptyStagesLeakNoBlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		sel  float64 // op 0 passes payloads below 100×sel; every probe's is 10
	}{
		{"every probe misses", 0.99},
		{"select drops every row", 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, _, probes := probeFeed(16, 1, 1000, 20)
			q.Ops[0].Sel = tc.sel
			cfg := DefaultConfig()
			cfg.Workers = 2
			e, err := New(q, physical.Assignment{0, 0, 0}, 1, staticChooser{Plan: query.Plan{0, 1, 2}}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			feedAll(t, e, probes) // the windows were never filled
			if res := e.Stop(); res.Produced != 0 || res.Batches != 1000 {
				t.Fatalf("produced %v results over %d batches, want 0 over 1000", res.Produced, res.Batches)
			}
			if acq, rec := e.core.Schema().BlockCounts(); acq != rec || acq < 1000 {
				t.Fatalf("%d blocks acquired, %d recycled, want the same and at least one per batch", acq, rec)
			}
		})
	}
}

// TestPooledPartialsHoldNoTuples keeps putPartials's shortcut honest: it
// clears a slice's length, not its capacity, on the promise that nothing is
// ever left beyond the length. After a run whose selection drops half of
// every batch in place and whose joins regrow the slices, every slice the
// pool hands back must be nil through its whole capacity.
func TestPooledPartialsHoldNoTuples(t *testing.T) {
	q, warm, _ := probeFeed(32, 2, 0, 0)
	q.Ops[0].Sel = 0.5
	cfg := DefaultConfig()
	cfg.Workers = 1
	e, err := New(q, physical.Assignment{0, 0, 0}, 1, staticChooser{Plan: query.Plan{0, 1, 2}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for _, b := range warm {
		feedAll(t, e, []*stream.Batch{b})
		e.Drain()
	}
	rng := rand.New(rand.NewSource(29))
	for p := 0; p < 200; p++ {
		b := stream.NewSizedBatch("S1", 1, 40)
		for i := 0; i < 40; i++ {
			b.AppendRow(uint64(p*40+i), 2, rng.Int63n(32), 2)[0] = 100 * rng.Float64()
		}
		feedAll(t, e, []*stream.Batch{b})
	}
	if res := e.Stop(); res.Produced == 0 {
		t.Fatal("the run produced nothing: the stages under test never ran")
	}
	var held [][]*stream.Joined
	for i := 0; i < 64; i++ {
		s := getPartials()
		for k, j := range s[:cap(s)] {
			if j != nil {
				t.Fatalf("pooled partials slice %d (cap %d) still references a tuple at index %d", i, cap(s), k)
			}
		}
		held = append(held, s)
	}
	for _, s := range held {
		putPartials(s)
	}
}

// TestJoinStageGroupsEqualSingles pins what the stage's one probe call per
// shard has to reproduce. The reference is built here, from a mirror window
// probed one key at a time and Block.CloneWith over the matches MaxFanout
// lets through, in the partials' order; ProcessStage's rows must equal it
// field for field — for 1, 4 and 16 shards, payload widths 0–4, with and
// without a fanout cap, and for probe sets whose keys all land in one shard
// (one group holds them all), land one per shard (sixteen groups of one), or
// fall anywhere, repeats and absent keys included. A last part probes while
// four goroutines insert, at Workers 1 and 4 (the CI step runs it under
// -race -cpu 1,4).
func TestJoinStageGroupsEqualSingles(t *testing.T) {
	const op, slot, nKeys, rows = 1, 1, 192, 1200
	rng := rand.New(rand.NewSource(31))
	probeSets := []struct {
		name  string
		keyOf func(i int) int64
	}{
		{"one shard", func(i int) int64 { return int64(16*(i%12) + 5) }},
		{"one per shard", func(i int) int64 { return int64(i % 16) }},
		{"anywhere", func(int) int64 { return rng.Int63n(nKeys + 20) }}, // the last 20 are never inserted
	}
	for _, shards := range []int{1, 4, 16} {
		for width := 0; width <= 4; width++ {
			for _, fanout := range []int{0, 3} {
				q := query.NewNWayJoin("GS", 3, 100) // op 0 selects on S1, ops 1 and 2 join S2 and S3
				cfg := DefaultConfig()
				cfg.Workers, cfg.MaxFanout = 1, fanout
				core, err := newNodeCore(q, cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				// Two spans of strictly ascending timestamps, so the shards
				// (each expiring its own prefix) and the mirror (expiring one
				// prefix) keep the same records.
				mirror := stream.NewWindow(q.WindowSeconds)
				var maxTs stream.Time
				for r := 0; r < rows; r += 40 {
					b := stream.NewSizedBatch("S2", width, 40)
					all := make([]int32, 40)
					for i := range all {
						all[i] = int32(i)
						maxTs = stream.Time(float64(r+i) * 2 * q.WindowSeconds / rows)
						row := b.AppendRow(uint64(r+i), maxTs, rng.Int63n(nKeys), maxTs+0.25)
						for v := range row {
							row[v] = rng.Float64()
						}
					}
					if err := core.Insert(op, b); err != nil {
						t.Fatal(err)
					}
					mirror.InsertRows(b, all)
				}
				mirror.ExpireBefore(maxTs.Add(-q.WindowSeconds))
				for _, set := range probeSets {
					where := fmt.Sprintf("%d shards, width %d, fanout %d, %s", shards, width, fanout, set.name)
					// Probes carry S1 alone or S1+S3; every seventh partial
					// already holds S2 and passes through, ahead of the rest.
					const n = 48
					sch := core.Schema()
					in := sch.AcquireBlock(n, 3*n)
					ps := core.NewPartials()
					for i := 0; i < n; i++ {
						k := set.keyOf(i)
						j := in.Seed(0, uint64(i), maxTs, k, maxTs, []float64{float64(i)}[:i%2])
						if i%3 == 0 {
							in.AddPart(j, 2, uint64(100+i), maxTs-1, k, maxTs, 1)[0] = -float64(i)
						}
						if i%7 == 0 {
							in.AddPart(j, slot, uint64(200+i), maxTs-2, k, maxTs, 1)[0] = 7
						}
						ps = append(ps, j)
					}
					var want []string
					for _, p := range ps {
						if p.Has(slot) {
							want = append(want, joinedFields(p, 3))
						}
					}
					ref := stream.NewJoinSchema(q.Streams)
					var m stream.Matches
					for _, p := range ps {
						if p.Has(slot) {
							continue
						}
						m.Reset()
						hits := mirror.AppendMatches(p.Key(), &m)
						if fanout > 0 {
							hits = min(hits, fanout)
						}
						if hits == 0 {
							continue
						}
						blk := ref.AcquireBlock(hits, hits*(p.NumVals()+width))
						for i := 0; i < hits; i++ {
							row := blk.CloneWith(p, slot, m.Seq[i], m.Ts[i], p.Key(), m.Arr[i], m.ValsAt(i))
							want = append(want, joinedFields(row, 3))
						}
					}
					out, err := core.ProcessStage(op, ps)
					if err != nil {
						t.Fatal(err)
					}
					if len(out) != len(want) || len(want) < n/7 {
						t.Fatalf("%s: %d rows out, reference has %d", where, len(out), len(want))
					}
					for i, j := range out {
						if got := joinedFields(j, 3); got != want[i] {
							t.Fatalf("%s: row %d = %s, want %s", where, i, got, want[i])
						}
					}
					core.ReleasePartials(out)
					if acq, rec := sch.BlockCounts(); acq != rec {
						t.Fatalf("%s: %d blocks acquired, %d recycled", where, acq, rec)
					}
				}
			}
		}
	}

	// Grouped probes against concurrent inserts: each goroutine owns a key
	// range, inserts ascending sequence numbers into it and probes it, so
	// whatever interleaves, a probe's matches must carry its own key and
	// come out oldest first — on sixteen shards (Workers 4) and on the one
	// window per operator a one-worker node keeps, where every producer's
	// inserts and probes meet on one lock.
	for _, workers := range []int{1, 4} {
		q := query.NewNWayJoin("GS", 3, 100)
		cfg := DefaultConfig()
		cfg.Workers = workers
		core, err := NewNodeCore(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		probeConcurrently(t, core, op, slot)
	}
}

// probeConcurrently is TestJoinStageGroupsEqualSingles's concurrent part:
// four goroutines insert into and probe operator op of core at once.
func probeConcurrently(t *testing.T, core *NodeCore, op, slot int) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 150; round++ {
				b := stream.NewSizedBatch("S2", 1, 30)
				for i := 0; i < 30; i++ {
					ts := stream.Time(round) / 10
					b.AppendRow(uint64(round*30+i), ts, int64(g*64)+rng.Int63n(64), ts)[0] = float64(g)
				}
				if err := core.Insert(op, b); err != nil {
					t.Error(err)
					return
				}
				in := core.Schema().AcquireBlock(30, 0)
				ps := core.NewPartials()
				for i := 0; i < 30; i++ {
					ps = append(ps, in.Seed(0, uint64(i), 0, int64(g*64)+rng.Int63n(64), 0, nil))
				}
				out, err := core.ProcessStage(op, ps)
				if err != nil {
					t.Error(err)
					return
				}
				for i, j := range out {
					p, _ := j.Part(slot)
					probe, _ := j.Part(0)
					if p.Key != j.Key() || p.Vals[0] != float64(g) {
						t.Errorf("goroutine %d: probe of key %d matched key %d of goroutine %v", g, j.Key(), p.Key, p.Vals[0])
						return
					}
					if i > 0 {
						prev, _ := out[i-1].Part(slot)
						prevProbe, _ := out[i-1].Part(0)
						if prevProbe.Seq == probe.Seq && prev.Seq >= p.Seq {
							t.Errorf("goroutine %d: probe %d got seq %d after %d: not oldest first", g, probe.Seq, p.Seq, prev.Seq)
							return
						}
					}
				}
				core.ReleasePartials(out)
			}
		}(g)
	}
	wg.Wait()
}

// TestShardsFollowWorkers pins the shard rule: a node drained by one worker
// keeps one window per join operator, a node with parallel workers keeps
// numShards, and Workers 0 means GOMAXPROCS workers (the CI step runs it at
// -cpu 1,4, which takes both branches). A scratch last grouped over sixteen
// shards must come out of a one-shard group as one run of every item, in
// input order.
func TestShardsFollowWorkers(t *testing.T) {
	q := query.NewNWayJoin("SW", 3, 100) // op 0 selects on S1, ops 1 and 2 join S2 and S3
	atZero := numShards
	if stdruntime.GOMAXPROCS(0) == 1 {
		atZero = 1
	}
	for _, tc := range []struct{ workers, want int }{{1, 1}, {2, numShards}, {4, numShards}, {0, atZero}} {
		cfg := DefaultConfig()
		cfg.Workers = tc.workers
		core, err := NewNodeCore(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for op := 1; op <= 2; op++ {
			if got := core.Shards(op); got != tc.want {
				t.Errorf("Workers %d (GOMAXPROCS %d): join op %d has %d shards, want %d",
					tc.workers, stdruntime.GOMAXPROCS(0), op, got, tc.want)
			}
		}
	}

	sc := getScratch()
	defer putScratch(sc)
	const wide, n = 100, 37
	sc.shardOf = grow32(sc.shardOf, wide)
	for i := range sc.shardOf {
		sc.shardOf[i] = int32((i * 7) % numShards)
	}
	sc.group(wide, numShards)
	sc.group(n, 1)
	if !slices.Equal(sc.starts, []int32{0, n}) {
		t.Fatalf("one-shard group: starts = %v, want [0 %d]", sc.starts, n)
	}
	if len(sc.order) != n {
		t.Fatalf("one-shard group: %d items ordered, want %d", len(sc.order), n)
	}
	for i, k := range sc.order {
		if k != int32(i) {
			t.Fatalf("one-shard group: order[%d] = %d, want the identity over %d items", i, k, n)
		}
	}
}

func TestEngineProbeExpiresStaleShards(t *testing.T) {
	// One cold shard must not serve tuples older than the window span
	// even if that shard never receives another insert.
	q := twoWay() // op1 joins on S2, window 60 s
	cfg := DefaultConfig()
	cfg.MaxFanout = 0
	cfg.Workers = 2 // more than one worker: 16 shards
	e, err := New(q, physical.Assignment{0, 0}, 1, staticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	mkBatch := func(streamName string, key int64, ts float64) *stream.Batch {
		b := stream.NewBatch(streamName)
		b.Append(&stream.Tuple{Stream: streamName, Ts: stream.Time(ts), Key: key, Vals: []float64{1}})
		return b
	}
	// Key 1 lands in shard 1; key 16 lands in shard 0 (16 shards).
	if err := e.Ingest(mkBatch("S2", 1, 10)); err != nil {
		t.Fatal(err)
	}
	// 500 s later, an insert to shard 0 advances the op's high-water mark.
	if err := e.Ingest(mkBatch("S2", numShards, 510)); err != nil {
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
		t.Fatalf("produced %v results, want 2 (stale shard must not match)", res.Produced)
	}
}

func TestEngineObservedSelWithAtomicCounters(t *testing.T) {
	if got := observedSel(0.7, 31, 5); got != 0.7 {
		t.Fatalf("unprimed observedSel = %v, want the estimate", got)
	}
	if got := observedSel(0.7, 64, 16); got != 0.25 {
		t.Fatalf("observedSel = %v, want 0.25", got)
	}
}
