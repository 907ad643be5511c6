package engine

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
)

var errNodeDied = errors.New("fake transport: node died under the stage")

// fakeTransport is the in-process transport with a node that can fail the
// way only a remote one does: on its own, under a stage. RunStage on the
// armed node either fails at once (failNext) or blocks until the router
// kills the node and fails then (holdNext) — in both cases leaving the
// input whole, as the Transport contract requires.
type fakeTransport struct {
	*localTransport

	// stageDelay, set before the first Ingest, is a fixed service time
	// added to every stage.
	stageDelay time.Duration

	mu       sync.Mutex
	failNext int           // node whose next stage fails at once; -1: none
	holdNext int           // node whose next stage blocks until Kill; -1: none
	entered  chan int      // receives len(in) when the held stage is reached
	killed   chan struct{} // closed by Kill of the holding node
	ranOn    [][2]int      // (op, node) of every stage that ran
	revived  []uint64      // gen of every Revive
	kills    []int         // node of every Kill
}

func (f *fakeTransport) RunStage(node, op int, in []*stream.Joined) ([]*stream.Joined, error) {
	f.mu.Lock()
	fail := f.failNext == node
	hold := f.holdNext == node
	if fail {
		f.failNext = -1
	}
	if hold {
		f.holdNext = -1
	}
	killed := f.killed
	f.mu.Unlock()
	if fail {
		return nil, errNodeDied
	}
	if hold {
		f.entered <- len(in)
		<-killed
		return nil, errNodeDied
	}
	f.mu.Lock()
	f.ranOn = append(f.ranOn, [2]int{op, node})
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

func (f *fakeTransport) Revive(node int, gen uint64, joinOps []int, mode chaos.RecoveryMode) (int, error) {
	f.mu.Lock()
	f.revived = append(f.revived, gen)
	f.killed = make(chan struct{})
	f.mu.Unlock()
	return f.localTransport.Revive(node, gen, joinOps, mode)
}

// newFakeEngine builds a started 2-node engine (select on node 0, join on
// node 1, one worker each) over a fakeTransport.
func newFakeEngine(t *testing.T) (*Engine, *fakeTransport) {
	t.Helper()
	q := query.NewNWayJoin("B", 2, 100)
	q.Ops[0].Sel = 0.9
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.MaxFanout = 8
	core, err := NewNodeCore(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := newLocalTransport(core)
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTransport{localTransport: lt, failNext: -1, holdNext: -1,
		entered: make(chan int, 1), killed: make(chan struct{})}
	e, err := NewOn(core, ft, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	return e, ft
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
	e, ft := newFakeEngine(t)
	feedAll(t, e, warm)
	e.Drain()
	before := e.Counters().Produced

	ft.mu.Lock()
	ft.failNext = 1
	ft.mu.Unlock()
	feedAll(t, e, probes[:1])
	drainOrFail(t, e)
	if loads := e.NodeLoads(); !runtime.NodeDown(loads[1]) || runtime.NodeDown(loads[0]) {
		t.Fatalf("loads %v: want node 1 down, node 0 up", loads)
	}
	c := e.Counters()
	if c.TuplesLost != 0 || c.Crashes != 0 || c.Produced != before {
		t.Fatalf("after the failed hop: lost=%d crashes=%d produced=%d (was %d); want it parked whole", c.TuplesLost, c.Crashes, c.Produced, before)
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
	if got := e.Counters().Produced; got <= before {
		t.Fatalf("produced %d after replay, %d before: the parked hop never sank", got, before)
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
		t.Fatalf("lost %d tuples with nothing parked", res.TuplesLost)
	}
}

// TestStageFailureUnderLoseStateCountsLost: a hop in flight on a node that
// is crashed under LoseState dies with it, and every partial it carried is
// counted lost.
func TestStageFailureUnderLoseStateCountsLost(t *testing.T) {
	q := query.NewNWayJoin("B", 2, 100)
	warm, probes := buildBenchBatches(q, 1, 50)
	e, ft := newFakeEngine(t)
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
	if res.TuplesLost != int64(inFlight) || res.Crashes != 1 {
		t.Fatalf("lost=%d crashes=%d, want %d/1", res.TuplesLost, res.Crashes, inFlight)
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
	e, ft := newFakeEngine(t)
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
	e, ft := newFakeEngine(t)
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
		t.Fatalf("checkpoint-mode crash lost %d tuples", res.TuplesLost)
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

// TestRejectedOpenSessionReleasesWAL: a session rejected after its engine
// was built (here: a fault naming node 9 of 2) must stop that engine, or
// every rejected open leaks the transport's open WAL segment and its
// engine-* directory.
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
		if _, err := OpenSession(q, 2, pol, SessionOptions{Config: Config{WALDir: walDir}, Faults: bad}); err == nil {
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
