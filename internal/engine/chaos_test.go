package engine

import (
	"errors"
	"fmt"
	"os"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
	"rld/internal/wal"
)

// warmProduced is what the 40 S2 warm-up batches of buildBenchBatches
// contribute to Produced on their own: S2 tuples pass the (other-stream)
// selection untouched and trivially satisfy their own join, so each sinks
// as one result.
const warmProduced = 40 * 50

// newChaosEngine builds a fresh 2-node engine over the bench query
// (select on node 0, join on node 1).
func newChaosEngine(t *testing.T) *Engine {
	t.Helper()
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.MaxFanout = 8
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	return e
}

// runFaultFree warms the join window and pushes the probe batches,
// returning final results — the fault-free reference run.
func runFaultFree(t *testing.T) *runtime.Report {
	t.Helper()
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	warm, probes := buildBenchBatches(q, 16, 50)
	e := newChaosEngine(t)
	for _, b := range warm {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	for _, b := range probes {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	return e.Stop()
}

func TestCrashCheckpointRestoresAndReplays(t *testing.T) {
	base := runFaultFree(t)
	if base.Produced <= warmProduced {
		t.Fatalf("fault-free run produced no joins (%v)", base.Produced)
	}

	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	warm, probes := buildBenchBatches(q, 16, 50)
	e := newChaosEngine(t)
	for _, b := range warm {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	e.Checkpoint()
	if err := e.Crash(1, chaos.Checkpoint); err != nil {
		t.Fatal(err)
	}
	// The join node is dead: probe batches pass the selection on node 0
	// and park at node 1.
	for _, b := range probes {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain() // must not hang on the parked backlog
	loads := e.NodeLoads()
	if !runtime.NodeDown(loads[1]) {
		t.Fatalf("down node load = %v, want +Inf sentinel", loads[1])
	}
	if runtime.NodeDown(loads[0]) {
		t.Fatal("live node reported down")
	}
	if err := e.Recover(1); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	res := e.Stop()
	if res.Crashes != 1 || res.Restores != 1 {
		t.Fatalf("crashes=%d restores=%d, want 1/1", res.Crashes, res.Restores)
	}
	if res.TuplesLost != 0 {
		t.Fatalf("checkpoint recovery lost %v tuples", res.TuplesLost)
	}
	// The window snapshot covered the whole warm-up and no inserts happen
	// while down, so the replayed probes see identical state: counts must
	// match the fault-free run exactly.
	if res.Produced != base.Produced {
		t.Fatalf("produced %v after recovery, fault-free %v", res.Produced, base.Produced)
	}
}

// exactlyOnceBatches builds the three-phase input for the exactly-once
// tests: warm and warm2 are consecutive S2 window fills from ONE source
// (so every tuple has a distinct Seq — the TupleID invariant), probes are
// S1 batches that join against them. Each call regenerates identical
// content, so the faulted and fault-free runs see the same input.
func exactlyOnceBatches() (warm, warm2, probes []*stream.Batch) {
	mkSource := func(name string, seed int64) *gen.Source {
		return gen.NewSource(name,
			gen.ConstProfile(100),
			gen.KeyDist{Cold: 256},
			gen.Uniform{A: 0, B: 100}, seed)
	}
	fill := func(s *gen.Source, n int) (out []*stream.Batch) {
		for i := 0; i < n; i++ {
			b := stream.NewSizedBatch(s.Name, s.Arity(), 50)
			for j := 0; j < 50; j++ {
				s.AppendNext(b)
			}
			out = append(out, b)
		}
		return out
	}
	s2 := mkSource("S2", 7)
	warm = fill(s2, 16)
	warm2 = fill(s2, 16)
	probes = fill(mkSource("S1", 11), 24)
	return warm, warm2, probes
}

// recoverJoinNode is runExactlyOnce's plain recovery of the crashed node.
func recoverJoinNode(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Recover(1); err != nil {
		t.Fatal(err)
	}
}

// runExactlyOnce drives the phased workload — warm, checkpoint, warm2,
// then crash/park/recover when revive is non-nil (it must bring node 1
// back) — and returns the final results plus the multiset of produced
// result identities (each result keyed by the TupleIDs of the input tuples
// it joins).
func runExactlyOnce(t *testing.T, walDir string, revive func(*testing.T, *Engine)) (*runtime.Report, map[string]int) {
	t.Helper()
	warm, warm2, probes := exactlyOnceBatches()
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.WALDir = walDir
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	set := make(map[string]int)
	e.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for _, j := range tuples {
			set[fmt.Sprint(j.TupleIDs(nil))]++
		}
	})
	e.Start()
	feed := func(bs []*stream.Batch) {
		t.Helper()
		for _, b := range bs {
			if err := e.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
		e.Drain()
	}
	feed(warm)
	e.Checkpoint()
	feed(warm2) // window growth past the barrier: covered only by the WAL
	if revive != nil {
		if err := e.Crash(1, chaos.Checkpoint); err != nil {
			t.Fatal(err)
		}
		feed(probes) // the join node is down: probes park
		revive(t, e)
		e.Drain()
	} else {
		feed(probes)
	}
	return e.Stop(), set
}

// TestChaosExactlyOnce is the tentpole acceptance test: a crash between
// checkpoints, recovered under WithExactlyOnce semantics, must produce
// exactly the fault-free run's results — same count, same result
// identities, no duplicates — because WAL replay bridges the gap between
// the restored snapshot and the crash point, and insert-time dedup absorbs
// the overlap.
func TestChaosExactlyOnce(t *testing.T) {
	base, baseSet := runExactlyOnce(t, t.TempDir(), nil)
	if base.Produced <= warmProduced {
		t.Fatalf("fault-free run produced no joins (%v)", base.Produced)
	}
	got, gotSet := runExactlyOnce(t, t.TempDir(), recoverJoinNode)
	if got.Crashes != 1 || got.Restores != 1 {
		t.Fatalf("crashes=%d restores=%d, want 1/1", got.Crashes, got.Restores)
	}
	if got.TuplesLost != 0 {
		t.Fatalf("exactly-once recovery lost %v tuples", got.TuplesLost)
	}
	if got.Produced != base.Produced {
		t.Fatalf("produced %v after recovery, fault-free %v", got.Produced, base.Produced)
	}
	if len(gotSet) != len(baseSet) {
		t.Fatalf("distinct results %d after recovery, fault-free %d", len(gotSet), len(baseSet))
	}
	for k, n := range baseSet {
		if gotSet[k] != n {
			t.Fatalf("result %s produced %d times after recovery, fault-free %d", k, gotSet[k], n)
		}
	}

	// Without the WAL the same fault schedule must lose the post-barrier
	// window growth: the snapshot restore winds the join window back to
	// the checkpoint, so replayed probes find strictly fewer matches. This
	// pins that the equality above is the WAL's doing, not slack in the
	// scenario.
	noWAL, _ := runExactlyOnce(t, "", recoverJoinNode)
	if noWAL.Produced >= base.Produced {
		t.Fatalf("non-durable faulted run produced %v, want < %v (scenario does not exercise the WAL)", noWAL.Produced, base.Produced)
	}
}

// TestRecoverFailsWhenWALCannotReplay: under exactly-once, a node whose
// write-ahead log cannot be read must not be reported recovered — it would
// come back without everything inserted since the last checkpoint, silently.
// Recover fails with the log's error and leaves the node down; once the log
// is readable again a second Recover yields exactly the fault-free results.
func TestRecoverFailsWhenWALCannotReplay(t *testing.T) {
	base, baseSet := runExactlyOnce(t, t.TempDir(), nil)
	got, gotSet := runExactlyOnce(t, t.TempDir(), func(t *testing.T, e *Engine) {
		// A regular file where the log directory was: opening a segment is
		// ENOTDIR, which is not "no such segment" and fails even as root.
		dir := e.walDir
		if err := os.Rename(dir, dir+".away"); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := e.Recover(1); !errors.Is(err, wal.ErrWALDir) {
			t.Fatalf("Recover with an unreadable log returned %v, want wal.ErrWALDir", err)
		}
		if !runtime.NodeDown(e.NodeLoads()[1]) {
			t.Fatal("node reported up after a failed recovery")
		}
		if err := os.Remove(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(dir+".away", dir); err != nil {
			t.Fatal(err)
		}
		recoverJoinNode(t, e)
	})
	if got.Produced != base.Produced || got.TuplesLost != 0 || len(gotSet) != len(baseSet) {
		t.Fatalf("produced=%v lost=%v distinct=%d after the second recovery, fault-free %v/0/%d",
			got.Produced, got.TuplesLost, len(gotSet), base.Produced, len(baseSet))
	}
	for k, n := range baseSet {
		if gotSet[k] != n {
			t.Fatalf("result %s produced %d times after recovery, fault-free %d", k, gotSet[k], n)
		}
	}
}

// TestCrashRecoverLoopUnderConcurrentIngest crashes and recovers the join
// node over and over while producers keep ingesting into four-worker pools.
// A send that slipped into a swept queue, a worker that missed its wakeup,
// or a pool that outlived its retirement would each leave a message counted
// in flight with nobody to process it: Drain must still return, with nothing
// pending and — every crash being checkpoint-mode — nothing lost. Run under
// -race at -cpu 1,4 in CI.
func TestCrashRecoverLoopUnderConcurrentIngest(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.MaxFanout = 8
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	warm, probes := buildBenchBatches(q, 64, 20)
	feedAll(t, e, warm)
	e.Drain()
	e.Checkpoint()

	// The control loop hands out ingest tokens as it goes, so the producers
	// run freely against the crashes without outrunning them.
	const rounds, perRound = 100, 64
	tokens := make(chan int, rounds*perRound)
	var producers sync.WaitGroup
	for p := 0; p < 2; p++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := range tokens {
				if err := e.Ingest(probes[i%len(probes)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	next := 0
	grant := func(n int) {
		for ; n > 0; n-- {
			tokens <- next
			next++
		}
	}
	for round := 0; round < rounds; round++ {
		grant(perRound / 2)
		if err := e.Crash(1, chaos.Checkpoint); err != nil {
			t.Fatal(err)
		}
		grant(perRound / 2)
		stdruntime.Gosched() // let the producers route into the outage
		if err := e.Recover(1); err != nil {
			t.Fatal(err)
		}
	}
	close(tokens)
	producers.Wait()
	drainOrFail(t, e)
	if n := e.Pending(); n != 0 {
		t.Fatalf("%d messages pending after Drain", n)
	}
	res := e.Stop()
	if res.Crashes != rounds || res.TuplesLost != 0 || res.Batches != int64(len(warm)+rounds*perRound) {
		t.Fatalf("crashes=%d lost=%v batches=%d, want %d/0/%d", res.Crashes, res.TuplesLost, res.Batches, rounds, len(warm)+rounds*perRound)
	}
}

func TestCrashLoseStateDropsInFlightAndState(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	warm, probes := buildBenchBatches(q, 16, 50)
	e := newChaosEngine(t)
	for _, b := range warm {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if err := e.Crash(1, chaos.LoseState); err != nil {
		t.Fatal(err)
	}
	// Probes sent while the join node is dead are destroyed.
	for _, b := range probes[:8] {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if err := e.Recover(1); err != nil {
		t.Fatal(err)
	}
	// The window was discarded: post-recovery probes join against an
	// empty window and produce nothing.
	for _, b := range probes[8:] {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	res := e.Stop()
	// Only the warm-up pass-throughs (sunk before the crash) come out:
	// probes sent while down died, and post-recovery probes join against
	// an empty window.
	if res.Produced != warmProduced {
		t.Fatalf("produced %v, want %d (no joins against a discarded window)", res.Produced, warmProduced)
	}
	if res.TuplesLost == 0 {
		t.Fatal("lose-state crash recorded no lost tuples")
	}
	if res.Crashes != 1 || res.Restores != 0 {
		t.Fatalf("crashes=%d restores=%d, want 1/0", res.Crashes, res.Restores)
	}
}

func TestCrashIdempotentAndErrors(t *testing.T) {
	e := newChaosEngine(t)
	if err := e.Crash(5, chaos.Checkpoint); err == nil {
		t.Fatal("crash of unknown node accepted")
	}
	if err := e.Recover(-1); err == nil {
		t.Fatal("recover of unknown node accepted")
	}
	if err := e.Crash(1, chaos.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(1, chaos.Checkpoint); err != nil {
		t.Fatal("re-crash should be a no-op, got", err)
	}
	if err := e.Recover(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(1); err != nil {
		t.Fatal("re-recover should be a no-op, got", err)
	}
	res := e.Stop()
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1 (idempotent)", res.Crashes)
	}
	// No Checkpoint() was ever taken: recovery cleared the window, which
	// must not be reported as a successful restore.
	if res.Restores != 0 {
		t.Fatalf("restores = %d with no snapshot taken", res.Restores)
	}
}

func TestStopWhileDownCountsParkedAsLost(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	warm, probes := buildBenchBatches(q, 8, 50)
	e := newChaosEngine(t)
	for _, b := range warm {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if err := e.Crash(1, chaos.Checkpoint); err != nil {
		t.Fatal(err)
	}
	for _, b := range probes {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Stop() // node still down: parked backlog has nowhere to go
	if res.TuplesLost == 0 {
		t.Fatal("stop while down lost nothing")
	}
	if res.Produced != warmProduced {
		t.Fatalf("produced %v, want %d (join node down for every probe)", res.Produced, warmProduced)
	}
}

func TestSlowdownKeepsCountsAndRestores(t *testing.T) {
	base := runFaultFree(t)

	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	warm, probes := buildBenchBatches(q, 16, 50)
	e := newChaosEngine(t)
	for _, b := range warm {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if err := e.SetSlowdown(1, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, b := range probes[:8] {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if err := e.SetSlowdown(1, 1); err != nil {
		t.Fatal(err)
	}
	for _, b := range probes[8:] {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	res := e.Stop()
	// A slowdown stretches wall time but must not change what comes out.
	if res.Produced != base.Produced {
		t.Fatalf("slowdown changed counts: %v vs %v", res.Produced, base.Produced)
	}
	if res.Crashes != 0 || res.TuplesLost != 0 {
		t.Fatalf("slowdown accounted as failure: crashes=%d lost=%v", res.Crashes, res.TuplesLost)
	}
}
