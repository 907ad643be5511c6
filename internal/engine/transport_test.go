package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
	"rld/internal/wal"
)

var errNodeDied = errors.New("fake transport: node died under the stage")

// fakeTransport is the in-process transport with a node that can fail the
// way only a remote one does: on its own, under a stage. RunStage on the
// armed node either fails at once (failNext) or blocks until the router
// kills the node and fails then (holdNext) — in both cases leaving the
// input whole, as the Transport contract requires. It can also refuse to
// snapshot one operator (failSnapshot) and refuse inserts on one node
// (failInsert), the way a worker that cannot be reached does. And it can
// hold a node's next stage until the test lets it run (gateNext), whatever
// happens to the node meanwhile.
type fakeTransport struct {
	localTransport

	// stageDelay, set before the first Ingest, is a fixed service time
	// added to every stage.
	stageDelay time.Duration

	mu           sync.Mutex
	failNext     int           // node whose next stage fails at once; -1: none
	holdNext     int           // node whose next stage blocks until Kill; -1: none
	failSnapshot int           // operator whose snapshots fail; -1: none
	failInsert   int           // node whose inserts fail until it is restarted; -1: none
	gateNext     int           // node whose next stage waits for gate; -1: none
	gate         chan struct{} // closed by the test to let the gated stage run
	entered      chan int      // receives len(in) when the held or gated stage is reached
	killed       chan struct{} // closed by Kill of the holding node
	ranOn        [][2]int      // (op, node) of every stage that ran
	ranLen       []int         // len(in) of every stage in ranOn
	inStage      map[int]int   // node → stages in RunStage now
	peak         map[int]int   // node → most stages ever in RunStage at once
	revived      []uint64      // gen of every Restart
	kills        []int         // node of every Kill
	countPooled  bool          // count the stages pool workers run in pooled
	pooled       int           // stages run by a pool worker (onPoolWorker)
}

func (f *fakeTransport) RunStage(node, op int, in []*stream.Joined) ([]*stream.Joined, error) {
	f.mu.Lock()
	fail := f.failNext == node
	hold := f.holdNext == node
	gated := f.gateNext == node
	if fail {
		f.failNext = -1
	}
	if hold {
		f.holdNext = -1
	}
	if gated {
		f.gateNext = -1
	}
	killed, gate := f.killed, f.gate
	if f.countPooled && onPoolWorker() {
		f.pooled++
	}
	f.inStage[node]++
	f.peak[node] = max(f.peak[node], f.inStage[node])
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.inStage[node]--
		f.mu.Unlock()
	}()
	if fail {
		return nil, errNodeDied
	}
	if hold {
		f.entered <- len(in)
		<-killed
		return nil, errNodeDied
	}
	if gated {
		f.entered <- len(in)
		<-gate
	}
	f.mu.Lock()
	f.ranOn = append(f.ranOn, [2]int{op, node})
	f.ranLen = append(f.ranLen, len(in))
	f.mu.Unlock()
	time.Sleep(f.stageDelay)
	return f.localTransport.RunStage(node, op, in)
}

func (f *fakeTransport) Kill(node int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kills = append(f.kills, node)
	select {
	case <-f.killed:
	default:
		close(f.killed)
	}
}

func (f *fakeTransport) Restart(node int, gen uint64) error {
	f.mu.Lock()
	f.revived = append(f.revived, gen)
	f.killed = make(chan struct{})
	if f.failInsert == node {
		f.failInsert = -1 // a restarted node can be reached again
	}
	f.mu.Unlock()
	return f.localTransport.Restart(node, gen)
}

func (f *fakeTransport) SnapshotOp(node, op int) (*stream.Batch, error) {
	f.mu.Lock()
	fail := f.failSnapshot == op
	f.mu.Unlock()
	if fail {
		return nil, errNodeDied
	}
	return f.localTransport.SnapshotOp(node, op)
}

func (f *fakeTransport) Insert(node int, ops []int, b *stream.Batch) error {
	f.mu.Lock()
	fail := f.failInsert == node
	f.mu.Unlock()
	if fail {
		return errNodeDied
	}
	return f.localTransport.Insert(node, ops, b)
}

// newFakeEngine builds a started 2-node engine (select on node 0, join on
// node 1, one worker each) over a fakeTransport, exactly-once when walDir
// is not empty.
func newFakeEngine(t *testing.T, walDir string) (*Engine, *fakeTransport) {
	t.Helper()
	e, ft := newFakeRouter(t, walDir)
	e.Start()
	return e, ft
}

// newFakeRouter is newFakeEngine without the Start, for a session to open.
func newFakeRouter(t *testing.T, walDir string) (*Engine, *fakeTransport) {
	t.Helper()
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.MaxFanout = 8
	cfg.WALDir = walDir
	core, err := NewNodeCore(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ft := newFakeTransport(core)
	e, err := NewOn(core, ft, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return e, ft
}

// newFakeTransport is core's in-process transport as a fakeTransport with
// nothing armed.
func newFakeTransport(core *NodeCore) *fakeTransport {
	return &fakeTransport{localTransport: localTransport{core}, failNext: -1, holdNext: -1,
		failSnapshot: -1, failInsert: -1, gateNext: -1, entered: make(chan int, 1),
		killed: make(chan struct{}), inStage: map[int]int{}, peak: map[int]int{}}
}

// drainOrFail is Drain with a deadline: a Drain that waits on a down
// node's backlog would hang forever.
func drainOrFail(t *testing.T, e *Engine) {
	t.Helper()
	done := make(chan struct{})
	go func() { e.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain is waiting on a down node")
	}
}

func feedAll(t *testing.T, e *Engine, bs []*stream.Batch) {
	t.Helper()
	for _, b := range bs {
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStageFailureParksAndRecoverReplays: a node that dies on its own,
// under a hop, goes down without any Crash call; the hop is parked, not
// lost; Drain does not wait for it; Recover revives the next incarnation
// and replays the hop through the assignment as it is then; and a failure
// report about the dead incarnation cannot take the revived one down.
func TestStageFailureParksAndRecoverReplays(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	warm, probes := buildBenchBatches(q, 2, 50)
	e, ft := newFakeEngine(t, "")
	feedAll(t, e, warm)
	e.Drain()
	before := e.report().Produced

	ft.mu.Lock()
	ft.failNext = 1
	ft.mu.Unlock()
	feedAll(t, e, probes[:1])
	drainOrFail(t, e)
	if loads := e.NodeLoads(); !runtime.NodeDown(loads[1]) || runtime.NodeDown(loads[0]) {
		t.Fatalf("loads %v: want node 1 down, node 0 up", loads)
	}
	c := e.report()
	if c.TuplesLost != 0 || c.Crashes != 1 || c.Produced != before {
		t.Fatalf("after the failed hop: lost=%v crashes=%d produced=%v (was %v); want one outage, the hop parked whole", c.TuplesLost, c.Crashes, c.Produced, before)
	}
	ft.mu.Lock()
	kills := append([]int(nil), ft.kills...)
	ft.mu.Unlock()
	if len(kills) != 1 || kills[0] != 1 {
		t.Fatalf("kills %v, want exactly node 1", kills)
	}

	// Move the join off the dead node: the parked hop must follow it.
	if err := e.Migrate(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(1); err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, e)
	ft.mu.Lock()
	revived := append([]uint64(nil), ft.revived...)
	last := ft.ranOn[len(ft.ranOn)-1]
	ft.mu.Unlock()
	if len(revived) != 1 || revived[0] != 1 {
		t.Fatalf("revived incarnations %v, want [1]", revived)
	}
	if last != [2]int{1, 0} {
		t.Fatalf("replayed hop ran (op, node) %v, want the join on node 0", last)
	}
	if got := e.report().Produced; got <= before {
		t.Fatalf("produced %v after replay, %v before: the parked hop never sank", got, before)
	}

	// A late report about incarnation 0 must bounce off incarnation 1 …
	e.MarkDown(1, 0, chaos.Checkpoint)
	if runtime.NodeDown(e.NodeLoads()[1]) {
		t.Fatal("a stale-generation failure report took down the revived node")
	}
	// … while one about incarnation 1 is believed.
	e.MarkDown(1, 1, chaos.Checkpoint)
	if !runtime.NodeDown(e.NodeLoads()[1]) {
		t.Fatal("a current-generation failure report was ignored")
	}
	if res := e.Stop(); res.TuplesLost != 0 {
		t.Fatalf("lost %v tuples with nothing parked", res.TuplesLost)
	}
}

// TestDetectedOutageEvents: an outage the router detects by itself — a stage
// that fails under node 1's worker goroutine — is booked and told exactly
// like a Crash call: one crash, one EventCrash at the clock's time, down time
// until the Recover, one EventRecovery. And a failure report racing Close
// never emits into the closed events channel: the router calls the hook
// under the node's lock, and Stop takes every node's lock, retiring the
// incarnation the report names, before Close closes the channel. Run under
// -race at -cpu 1,4 in CI.
func TestDetectedOutageEvents(t *testing.T) {
	e, ft := newFakeRouter(t, "")
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSessionOn(e, "engine", pol, runtime.SessionOptions{EventBuffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ft.mu.Lock()
	ft.failNext = 1
	ft.mu.Unlock()
	if err := s.Ingest(ctx, flatBatch("S1", 5, 20)); err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, e) // the failed hop has taken node 1 down
	if err := s.Ingest(ctx, flatBatch("S1", 5, 50)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Crashes != 1 || st.DownSeconds != 30 {
		t.Fatalf("mid-outage stats: crashes=%d down=%v, want 1 and 30", st.Crashes, st.DownSeconds)
	}
	if err := s.Recover(1); err != nil {
		t.Fatal(err)
	}

	// Report node 0's incarnation of now down while Close runs, the way a
	// transport's reaper reports the process it watched. The report takes
	// no lock after its own, so nothing but the router's ordering can place
	// its event before the channel closes.
	ns := e.nodes[0]
	ns.mu.Lock()
	gen := ns.gen
	ns.mu.Unlock()
	reported := make(chan struct{})
	go func() {
		defer close(reported)
		e.MarkDown(0, gen, chaos.Checkpoint)
	}()
	rep, err := s.Close(ctx)
	<-reported
	if err != nil {
		t.Fatal(err)
	}
	var crashes, recoveries []runtime.Event
	for ev := range s.Events() {
		switch ev.Kind {
		case runtime.EventCrash:
			crashes = append(crashes, ev)
		case runtime.EventRecovery:
			recoveries = append(recoveries, ev)
		}
	}
	// Node 1's outage, then node 0's if a report beat Stop to it.
	want1 := runtime.Event{Kind: runtime.EventCrash, T: 20, Node: 1, Op: -1}
	if len(crashes) != rep.Crashes || len(crashes) == 0 || crashes[0] != want1 {
		t.Fatalf("crash events %+v, report counts %d crashes; want node 1's at 20 first, one event per crash", crashes, rep.Crashes)
	}
	if want := (runtime.Event{Kind: runtime.EventRecovery, T: 50, Node: 1, Op: -1}); len(recoveries) != 1 || recoveries[0] != want {
		t.Fatalf("recovery events %+v, want exactly %+v", recoveries, want)
	}
	if rep.DownSeconds != 30 {
		t.Fatalf("report down seconds %v, want 30", rep.DownSeconds)
	}
}

// TestStageFailureUnderLoseStateCountsLost: a hop in flight on a node that
// is crashed under LoseState dies with it, and every partial it carried is
// counted lost.
func TestStageFailureUnderLoseStateCountsLost(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	warm, probes := buildBenchBatches(q, 1, 50)
	e, ft := newFakeEngine(t, "")
	feedAll(t, e, warm)
	e.Drain()

	ft.mu.Lock()
	ft.holdNext = 1
	ft.mu.Unlock()
	feedAll(t, e, probes)
	inFlight := <-ft.entered // the hop is inside RunStage on node 1
	if inFlight == 0 {
		t.Fatal("no partials reached the join stage")
	}
	if err := e.Crash(1, chaos.LoseState); err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, e)
	res := e.Stop()
	if res.TuplesLost != float64(inFlight) || res.Crashes != 1 {
		t.Fatalf("lost=%v crashes=%d, want %d/1", res.TuplesLost, res.Crashes, inFlight)
	}
}

// TestSlowdownStretchesSingleWorkerNode: a slowdown is stretched service
// time, so it bites on a node with one worker — every netrt leader, every
// Workers=1 pipeline — where there is no part of a pool to pause. With each
// stage taking a fixed ~200 µs, factor 0.25 on the join node must at least
// double the wall time of the same probes, and factor 1 must restore it.
func TestSlowdownStretchesSingleWorkerNode(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	warm, probes := buildBenchBatches(q, 300, 10)
	e, ft := newFakeEngine(t, "")
	ft.stageDelay = 200 * time.Microsecond
	feedAll(t, e, warm)
	e.Drain()
	timed := func(bs []*stream.Batch) time.Duration {
		start := time.Now()
		feedAll(t, e, bs)
		e.Drain()
		return time.Since(start)
	}
	before := timed(probes[:100])
	if err := e.SetSlowdown(1, 0.25); err != nil {
		t.Fatal(err)
	}
	slowed := timed(probes[100:200])
	if err := e.SetSlowdown(1, 1); err != nil {
		t.Fatal(err)
	}
	after := timed(probes[200:])
	e.Stop()
	if slowed < 2*before {
		t.Fatalf("100 batches took %v at factor 0.25, %v unslowed: a single-worker node did not slow", slowed, before)
	}
	if 2*after > slowed {
		t.Fatalf("100 batches took %v after factor 1, %v at factor 0.25: full speed was not restored", after, slowed)
	}
}

// TestCrashedPoolExitsBeforeReviveAndBacklogKeepsOrder holds the join
// node's only worker inside the sink while probes queue behind it, then
// crashes the node. The crash must not wait for the worker; Recover must —
// the transport is not asked to revive the node while a stage of the dead
// pool is still running — and the swept backlog, followed by what was
// routed to the node while it was down, must replay in arrival order.
func TestCrashedPoolExitsBeforeReviveAndBacklogKeepsOrder(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	warm, probes := buildBenchBatches(q, 16, 50)
	e, ft := newFakeEngine(t, "")
	feedAll(t, e, warm)
	e.Drain()
	e.Checkpoint() // the revived join must find the warm window again

	held, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var firstSeqs []uint64
	e.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		s1, _ := tuples[0].PartByStream("S1")
		mu.Lock()
		firstSeqs = append(firstSeqs, s1.Seq)
		first := len(firstSeqs) == 1
		mu.Unlock()
		if first {
			close(held)
			<-release
		}
	})
	feedAll(t, e, probes)
	<-held // node 1's worker is in the sink; the other probes queue behind it
	if err := e.Crash(1, chaos.Checkpoint); err != nil {
		t.Fatal(err)
	}
	recovered := make(chan error, 1)
	go func() { recovered <- e.Recover(1) }()
	time.Sleep(20 * time.Millisecond)
	ft.mu.Lock()
	early := len(ft.revived)
	ft.mu.Unlock()
	if early != 0 {
		t.Fatal("Recover revived the node while a worker of the crashed pool was still in its stage")
	}
	close(release)
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, e)
	if res := e.Stop(); res.TuplesLost != 0 {
		t.Fatalf("checkpoint-mode crash lost %v tuples", res.TuplesLost)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(firstSeqs) != len(probes) {
		t.Fatalf("%d emissions for %d probe batches", len(firstSeqs), len(probes))
	}
	for i := 1; i < len(firstSeqs); i++ {
		if firstSeqs[i] <= firstSeqs[i-1] {
			t.Fatalf("replay reordered the backlog: emission %d starts at seq %d after %d", i, firstSeqs[i], firstSeqs[i-1])
		}
	}
}

// TestFailedHopReplaysFirstAndBacklogKeepsOrder holds the join node's
// only worker inside a stage while probes queue behind it, then crashes the
// node: the held stage fails under the kill, and its hop — taken from the
// queue ahead of everything the crash swept — must replay ahead of that
// backlog, so every probe's emission comes out in arrival order.
func TestFailedHopReplaysFirstAndBacklogKeepsOrder(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	warm, probes := buildBenchBatches(q, 16, 50)
	e, ft := newFakeEngine(t, "")
	feedAll(t, e, warm)
	e.Drain()
	e.Checkpoint() // the revived join must find the warm window again

	var mu sync.Mutex
	var firstSeqs []uint64
	e.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		s1, _ := tuples[0].PartByStream("S1")
		mu.Lock()
		firstSeqs = append(firstSeqs, s1.Seq)
		mu.Unlock()
	})
	ft.mu.Lock()
	ft.holdNext = 1
	ft.mu.Unlock()
	feedAll(t, e, probes)
	<-ft.entered // the first hop is inside RunStage on node 1
	if err := e.Crash(1, chaos.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(1); err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, e)
	if res := e.Stop(); res.TuplesLost != 0 || res.Crashes != 1 {
		t.Fatalf("lost=%v crashes=%d, want nothing lost in one checkpoint-mode crash", res.TuplesLost, res.Crashes)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(firstSeqs) != len(probes) {
		t.Fatalf("%d emissions for %d probe batches", len(firstSeqs), len(probes))
	}
	for i := 1; i < len(firstSeqs); i++ {
		if firstSeqs[i] <= firstSeqs[i-1] {
			t.Fatalf("the failed hop replayed out of order: emissions start at seqs %v", firstSeqs)
		}
	}
}

// runFakeExactlyOnce is runExactlyOnce over a fakeTransport: warm,
// checkpoint, warm2 — with sabotage, when not nil, called halfway through
// it — then, when crash is set, crash the join node, park the probes behind
// it and recover. It returns the final results and the multiset of result
// identities.
func runFakeExactlyOnce(t *testing.T, walDir string, crash bool, sabotage func(*Engine, *fakeTransport)) (*runtime.Report, map[string]int) {
	t.Helper()
	warm, warm2, probes := exactlyOnceBatches()
	e, ft := newFakeEngine(t, walDir)
	var mu sync.Mutex
	set := make(map[string]int)
	e.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for _, j := range tuples {
			set[fmt.Sprint(j.TupleIDs(nil))]++
		}
	})
	feed := func(bs []*stream.Batch) {
		t.Helper()
		feedAll(t, e, bs)
		e.Drain()
	}
	feed(warm)
	e.Checkpoint()
	feed(warm2[:len(warm2)/2])
	if sabotage != nil {
		sabotage(e, ft)
	}
	feed(warm2[len(warm2)/2:])
	if crash {
		if err := e.Crash(1, chaos.Checkpoint); err != nil {
			t.Fatal(err)
		}
	}
	feed(probes)
	if crash {
		if err := e.Recover(1); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	return e.Stop(), set
}

// sameResults fails unless got is exactly base: same count, same result
// identities the same number of times, nothing lost.
func sameResults(t *testing.T, got, base *runtime.Report, gotSet, baseSet map[string]int) {
	t.Helper()
	if got.TuplesLost != 0 || got.Produced != base.Produced || len(gotSet) != len(baseSet) {
		t.Fatalf("produced=%v lost=%v distinct=%d, fault-free %v/0/%d", got.Produced, got.TuplesLost, len(gotSet), base.Produced, len(baseSet))
	}
	for k, n := range baseSet {
		if gotSet[k] != n {
			t.Fatalf("result %s produced %d times, fault-free %d", k, gotSet[k], n)
		}
	}
}

// TestFailedSnapshotPullKeepsCheckpointAndLog: a checkpoint that cannot
// pull one operator keeps that operator's previous snapshot and cuts
// nothing from the log — which is then exactly what bridges the stale
// snapshot: a later crash and Recover of the operator's node is still exact.
func TestFailedSnapshotPullKeepsCheckpointAndLog(t *testing.T) {
	base, baseSet := runFakeExactlyOnce(t, t.TempDir(), false, nil)
	if base.Produced <= warmProduced {
		t.Fatalf("fault-free run produced no joins (%v)", base.Produced)
	}
	logged := func(e *Engine) (n int) {
		if err := e.wlog.Replay(func(wal.Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	got, gotSet := runFakeExactlyOnce(t, t.TempDir(), true, func(e *Engine, ft *fakeTransport) {
		prev, sinceCkpt := (*e.snaps.Load())[1], logged(e)
		if sinceCkpt == 0 {
			t.Fatal("nothing logged since the checkpoint: the scenario cannot show a truncation")
		}
		ft.mu.Lock()
		ft.failSnapshot = 1
		ft.mu.Unlock()
		e.Checkpoint()
		if (*e.snaps.Load())[1] != prev {
			t.Fatal("a failed pull replaced the operator's previous snapshot")
		}
		if n := logged(e); n != sinceCkpt {
			t.Fatalf("log holds %d records after a checkpoint with a failed pull, %d before it", n, sinceCkpt)
		}
		ft.mu.Lock()
		ft.failSnapshot = -1
		ft.mu.Unlock()
	})
	if got.Restores != 1 {
		t.Fatalf("restores=%d, want 1", got.Restores)
	}
	sameResults(t, got, base, gotSet, baseSet)
}

// TestFailedInsertIsRecoveredFromLog: under durability the router logs a
// batch before any transport sees it, so rows a node could not take are not
// lost — they are in the log, and the node's recovery replays them. Without
// the log the same refusals must cost results.
func TestFailedInsertIsRecoveredFromLog(t *testing.T) {
	base, baseSet := runFakeExactlyOnce(t, t.TempDir(), false, nil)
	refuse := func(_ *Engine, ft *fakeTransport) {
		ft.mu.Lock()
		ft.failInsert = 1
		ft.mu.Unlock()
	}
	got, gotSet := runFakeExactlyOnce(t, t.TempDir(), true, refuse)
	sameResults(t, got, base, gotSet, baseSet)
	if noWAL, _ := runFakeExactlyOnce(t, "", true, refuse); noWAL.Produced >= base.Produced {
		t.Fatalf("non-durable run with refused inserts produced %v, want < %v (scenario does not exercise the log)", noWAL.Produced, base.Produced)
	}
}

// TestRejectedOpenSessionReleasesWAL: a session rejected after its engine
// was built (here: a fault naming node 9 of 2) must stop that engine, or
// every rejected open leaks the router's open WAL segment and its engine-*
// directory.
func TestRejectedOpenSessionReleasesWAL(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors with")
		}
		return len(ents)
	}
	q := query.NewNWayJoin("B", 2, 100)
	pol := &runtime.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	bad, err := chaos.Parse("crash:9@1-2")
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	before := openFDs()
	for i := 0; i < 5; i++ {
		if _, err := OpenSession(q, 2, pol, Config{WALDir: walDir}, runtime.SessionOptions{Faults: bad}); err == nil {
			t.Fatal("a fault on node 9 of 2 was accepted")
		}
	}
	if after := openFDs(); after > before {
		t.Fatalf("5 rejected opens left %d descriptors open", after-before)
	}
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		t.Errorf("rejected open left %s behind", ent.Name())
	}
}

// TestRouterSkipsPassThroughStages: the router sends a batch only to the
// stages that can change it. Over a 3-way join with one operator per node —
// the select over S1 on node 0, the joins over S2 and S3 on nodes 1 and 2 —
// an S2 batch skips the select and its own stream's join, an S3 batch
// likewise, an S1 batch runs all three stages and an empty batch none. The
// results and the selectivity counters are those of a NodeCore that runs
// every stage, and with node 0 crashed S2 and S3 batches, which never need
// it, still complete: none parks or is lost there.
func TestRouterSkipsPassThroughStages(t *testing.T) {
	q := query.NewNWayJoin("P", 3, 100)
	cfg := DefaultConfig()
	cfg.Workers = 1
	plan := query.Plan{0, 1, 2}
	open := func() (*Engine, *fakeTransport, map[string]int) {
		t.Helper()
		core, err := NewNodeCore(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ft := newFakeTransport(core)
		e, err := NewOn(core, ft, physical.Assignment{0, 1, 2}, 3, staticChooser{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		var mu sync.Mutex
		e.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
			mu.Lock()
			defer mu.Unlock()
			for _, j := range tuples {
				got[fmt.Sprint(j.TupleIDs(nil))]++
			}
		})
		e.Start()
		return e, ft, got
	}
	// batch is round r's batch of stream slot: eight rows over keys 0–3
	// whose payloads the select (threshold 30) passes three of.
	batch := func(slot, r int) *stream.Batch {
		b := stream.NewSizedBatch(q.Streams[slot], 1, 8)
		for i := 0; i < 8; i++ {
			seq := uint64(8*r + i)
			b.AppendRow(seq, stream.Time(r), int64(i%4), stream.Time(r))[0] = float64(seq * 37 % 100)
		}
		return b
	}
	// The reference inserts each batch as the router does and runs every
	// plan stage over it through ProcessStage: it skips nothing.
	ref, err := NewNodeCore(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	runRef := func(b *stream.Batch) int {
		t.Helper()
		for _, op := range ref.JoinOpsFor(b.Stream) {
			if err := ref.Insert(op, b); err != nil {
				t.Fatal(err)
			}
		}
		slot, n := ref.Schema().Slot(b.Stream), b.Len()
		ps := ref.NewPartials()
		blk := ref.Schema().AcquireBlock(n, n*b.Width())
		for i := 0; i < n; i++ {
			ps = append(ps, blk.Seed(slot, b.Seq[i], b.Ts[i], b.Key[i], b.Arr[i], b.ValsAt(i)))
		}
		for _, op := range plan {
			if ps, err = ref.ProcessStage(op, ps); err != nil {
				t.Fatal(err)
			}
		}
		n = len(ps)
		for _, j := range ps {
			want[fmt.Sprint(j.TupleIDs(nil))]++
		}
		ref.ReleasePartials(ps)
		return n
	}
	// ingest feeds b to e, drains, and returns the stages it ran.
	ingest := func(e *Engine, ft *fakeTransport, b *stream.Batch) [][2]int {
		t.Helper()
		ft.mu.Lock()
		from := len(ft.ranOn)
		ft.mu.Unlock()
		feedAll(t, e, []*stream.Batch{b})
		drainOrFail(t, e)
		ft.mu.Lock()
		defer ft.mu.Unlock()
		return slices.Clone(ft.ranOn[from:])
	}

	e, ft, got := open()
	stages := map[string][][2]int{
		"S1": {{0, 0}, {1, 1}, {2, 2}},
		"S2": {{2, 2}},
		"S3": {{1, 1}},
	}
	for r := 0; r < 6; r++ {
		for _, slot := range []int{1, 2, 0} {
			b := batch(slot, r)
			runRef(b)
			if ran := ingest(e, ft, b); !slices.Equal(ran, stages[b.Stream]) {
				t.Fatalf("round %d: an %s batch ran (op, node) %v, want %v", r, b.Stream, ran, stages[b.Stream])
			}
		}
	}
	batches := e.report().Batches
	if ran := ingest(e, ft, stream.NewBatch("S1")); len(ran) != 0 {
		t.Fatalf("an empty batch ran (op, node) %v, want no stage", ran)
	}
	if n := e.report().Batches; n != batches+1 {
		t.Fatalf("batches %d after an empty one, want %d", n, batches+1)
	}
	if len(want) == 0 || !maps.Equal(got, want) {
		t.Fatalf("results %v, want those of every stage run: %v", got, want)
	}
	for op := range q.Ops {
		gin, gout := e.core.SelCounters(op)
		win, wout := ref.SelCounters(op)
		if gin != win || gout != wout {
			t.Fatalf("op %d counted %d/%d, want %d/%d", op, gout, gin, wout, win)
		}
	}
	if gs, ws := e.core.ObservedSels(), ref.ObservedSels(); !slices.Equal(gs, ws) {
		t.Fatalf("observed selectivities %v, want %v", gs, ws)
	}
	e.Stop()

	// With the select's node down, S2 and S3 batches complete and an S1
	// batch parks or is lost there, as before.
	for _, mode := range []chaos.RecoveryMode{chaos.Checkpoint, chaos.LoseState} {
		if ref, err = NewNodeCore(q, cfg); err != nil {
			t.Fatal(err)
		}
		e, ft, _ := open()
		for _, slot := range []int{1, 2, 0} {
			b := batch(slot, 0)
			runRef(b)
			ingest(e, ft, b)
		}
		if err := e.Crash(0, mode); err != nil {
			t.Fatal(err)
		}
		for _, slot := range []int{1, 2} {
			b := batch(slot, 1)
			before, n := e.report().Produced, runRef(b)
			ingest(e, ft, b)
			c := e.report()
			e.nodes[0].mu.Lock()
			parked := len(e.nodes[0].parked)
			e.nodes[0].mu.Unlock()
			if c.Produced != before+float64(n) || c.TuplesLost != 0 || parked != 0 {
				t.Fatalf("%v: an %s batch past the down select produced %v (want %v), lost %v, parked %d", mode, b.Stream, c.Produced-before, n, c.TuplesLost, parked)
			}
		}
		b := batch(0, 1)
		before, n := e.report().Produced, runRef(b)
		ingest(e, ft, b)
		e.nodes[0].mu.Lock()
		parked := len(e.nodes[0].parked)
		e.nodes[0].mu.Unlock()
		if mode == chaos.Checkpoint {
			if parked != 1 {
				t.Fatalf("an S1 batch to the down select parked %d messages, want 1", parked)
			}
			if err := e.Recover(0); err != nil {
				t.Fatal(err)
			}
			drainOrFail(t, e)
			if c := e.report(); c.Produced != before+float64(n) || c.TuplesLost != 0 {
				t.Fatalf("the replayed S1 batch produced %v (want %v), lost %v", c.Produced-before, n, c.TuplesLost)
			}
		} else if c := e.report(); c.TuplesLost != float64(b.Len()) || parked != 0 {
			t.Fatalf("an S1 batch to the down select under LoseState: lost %v of %d, parked %d", c.TuplesLost, b.Len(), parked)
		}
		e.Stop()
	}
}
