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
	e, err := NewOn(core, ft, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}})
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
