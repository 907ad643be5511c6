package engine

import (
	"context"
	"fmt"
	"maps"
	stdruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
)

// arm makes node's next stage wait in RunStage until the returned release
// is called; the stage announces itself on f.entered when it starts waiting.
// The test's end releases it too, so a failed test does not leave its
// session's Close waiting on the gate.
func (f *fakeTransport) arm(t *testing.T, node int) (release func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gateNext = node
	gate := make(chan struct{})
	f.gate = gate
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return release
}

// ranSince returns the (op, node) and len(in) of every stage that ran
// after the first from.
func (f *fakeTransport) ranSince(from int) ([][2]int, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.ranOn[from:]), slices.Clone(f.ranLen[from:])
}

// onPoolWorker reports whether its caller runs on a node's pool worker
// (Engine.worker), not on a carrying producer.
func onPoolWorker() bool {
	pcs := make([]uintptr, 64)
	frames := stdruntime.CallersFrames(pcs[:stdruntime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Engine).worker") {
			return true
		}
		if !more {
			return false
		}
	}
}

func (f *fakeTransport) ran() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ranOn)
}

// goErr runs fn on its own goroutine; the channel yields its error.
func goErr(fn func() error) <-chan error {
	res := make(chan error, 1)
	go func() { res <- fn() }()
	return res
}

// openCarrySession opens a session with opts over newFakeRouter's two
// nodes — the select over S1 on node 0, the join over S2 on node 1, one
// worker each — and fills the join's S2 window with four rows of key 1, so
// that every S1 row of flatBatch passes the select and joins four times.
func openCarrySession(t *testing.T, opts runtime.SessionOptions) (*Session, *fakeTransport) {
	t.Helper()
	e, ft := newFakeRouter(t, "")
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSessionOn(e, "engine", pol, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	if err := s.Ingest(context.Background(), flatBatch("S2", 4, 0)); err != nil {
		t.Fatal(err)
	}
	return s, ft
}

// TestProducerCarriesAtTheBound pins when a session's producer runs its
// own batch instead of handing it off, and that a carrier holds a node's
// worker slot the way a pool worker does:
//   - (a, c) at MaxPending 1 on an idle pipeline, Ingest and TryIngest
//     return only after the batch ran every stage it needs;
//   - (b) with an emission waiting for the Results subscriber, the batch is
//     handed off;
//   - (d) a batch queued behind a carrier does not start beside it on a
//     one-worker node, and runs after it;
//   - (e) Recover waits out a carrier in a crashed node's stage, and the
//     carried batch's next hop to that node parks and replays;
//   - (f) an admission that crosses a session edge is handed off.
func TestProducerCarriesAtTheBound(t *testing.T) {
	ctx := context.Background()
	admits := map[string]func(*Session, *stream.Batch) error{
		"Ingest":    func(s *Session, b *stream.Batch) error { return s.Ingest(ctx, b) },
		"TryIngest": func(s *Session, b *stream.Batch) error { return s.TryIngest(b) },
	}
	for name, admit := range admits {
		s, ft := openCarrySession(t, runtime.SessionOptions{MaxPending: 1})
		from := ft.ran()
		release := ft.arm(t, 0)
		done := goErr(func() error { return admit(s, flatBatch("S1", 3, 1)) })
		<-ft.entered
		select {
		case err := <-done:
			t.Fatalf("(a) %s returned (%v) while the batch's first stage was gated: it was handed off", name, err)
		case <-time.After(20 * time.Millisecond):
		}
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if p := s.e.Pending(); p != 0 {
			t.Fatalf("(a) %d messages in flight after a carried %s returned", p, name)
		}
		if ran, _ := ft.ranSince(from); !slices.Equal(ran, [][2]int{{0, 0}, {1, 1}}) {
			t.Fatalf("(a) the carried batch ran (op, node) %v before %s returned, want [[0 0] [1 1]]", ran, name)
		}
	}

	// (b) A subscriber that has not read the last emission keeps the
	// batch's hand-offs.
	s, ft := openCarrySession(t, runtime.SessionOptions{MaxPending: 1, ResultBuffer: 1})
	<-s.Results() // the S2 rows, which pass through every stage
	if err := s.Ingest(ctx, flatBatch("S1", 3, 1)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Results()); n != 1 {
		t.Fatalf("(b) %d emissions waiting after a carried batch, want 1", n)
	}
	release := ft.arm(t, 0)
	select {
	case err := <-goErr(func() error { return s.Ingest(ctx, flatBatch("S1", 3, 2)) }):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("(b) Ingest waited for its gated stage with an emission undelivered")
	}
	<-ft.entered
	release()
	drainOrFail(t, s.e)

	// (d) A bare Engine.Ingest hands its batch to node 0 while a carrier
	// holds the node's only slot.
	s, ft = openCarrySession(t, runtime.SessionOptions{MaxPending: 1})
	from := ft.ran()
	release = ft.arm(t, 0)
	done := goErr(func() error { return s.Ingest(ctx, flatBatch("S1", 3, 1)) })
	<-ft.entered
	if err := s.e.Ingest(flatBatch("S1", 5, 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	ft.mu.Lock()
	inStage := ft.inStage[0]
	ft.mu.Unlock()
	if inStage != 1 {
		t.Fatalf("(d) %d stages in service on one-worker node 0 while a carrier holds it", inStage)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, s.e)
	ran, sizes := ft.ranSince(from)
	var onNode0 []int
	for i, r := range ran {
		if r[1] == 0 {
			onNode0 = append(onNode0, sizes[i])
		}
	}
	ft.mu.Lock()
	peak := ft.peak[0]
	ft.mu.Unlock()
	if peak != 1 || !slices.Equal(onNode0, []int{3, 5}) {
		t.Fatalf("(d) node 0 ran %d stages at once and batches of %v rows, want 1 and [3 5]", peak, onNode0)
	}

	// (e) Both operators on node 0: the carrier's next hop goes to the node
	// that crashed under it.
	s, ft = openCarrySession(t, runtime.SessionOptions{MaxPending: 1})
	if err := s.Migrate(1, 0); err != nil {
		t.Fatal(err)
	}
	s.e.Checkpoint() // the revived join must find the S2 window again
	before := s.e.report().Produced
	release = ft.arm(t, 0)
	done = goErr(func() error { return s.Ingest(ctx, flatBatch("S1", 3, 1)) })
	<-ft.entered
	if err := s.Crash(0); err != nil {
		t.Fatal(err)
	}
	recovered := goErr(func() error { return s.Recover(0) })
	select {
	case err := <-recovered:
		t.Fatalf("(e) Recover returned (%v) while a carrier was in the crashed node's stage", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, s.e)
	if c := s.e.report(); c.Produced != before+12 || c.TuplesLost != 0 {
		t.Fatalf("(e) the carried batch produced %v (want 12) and lost %v across the crash", c.Produced-before, c.TuplesLost)
	}
	ft.mu.Lock()
	revived := len(ft.revived)
	ft.mu.Unlock()
	if revived != 1 {
		t.Fatalf("(e) %d restarts, want 1", revived)
	}

	// (f) A batch that crosses a scripted fault edge is handed off.
	faults := &chaos.FaultPlan{Mode: chaos.Checkpoint, Faults: []chaos.Fault{{Kind: chaos.Slowdown, Node: 1, At: 2, Until: 3, Factor: 1}}}
	s, ft = openCarrySession(t, runtime.SessionOptions{MaxPending: 1, TickEvery: 1000, Faults: faults})
	release = ft.arm(t, 0)
	select {
	case err := <-goErr(func() error { return s.Ingest(ctx, flatBatch("S1", 3, 2)) }):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("(f) an edge-crossing Ingest waited for its gated stage")
	}
	<-ft.entered
	release()
	drainOrFail(t, s.e)
}

// TestProducerCarriesPastAReadingSubscriber: at GOMAXPROCS 1 a subscriber
// that reads every emission is runnable, not yet run, whenever the producer
// admits its next batch, so its emission still waits in the buffer. The
// producer yields to it, and it drains: every one of a thousand depth-1
// Ingests is carried, none is queued for a pool worker, and the subscriber
// misses no emission.
func TestProducerCarriesPastAReadingSubscriber(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(1))
	s, ft := openCarrySession(t, runtime.SessionOptions{MaxPending: 1, ResultBuffer: 1})
	ft.mu.Lock()
	ft.countPooled = true
	ft.mu.Unlock()
	read := make(chan int)
	go func() {
		n := 0
		for range s.Results() {
			n++
		}
		read <- n
	}()
	ctx := context.Background()
	const batches = 1000
	for i := 0; i < batches; i++ {
		if err := s.Ingest(ctx, flatBatch("S1", 3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ft.mu.Lock()
	pooled := ft.pooled
	ft.mu.Unlock()
	dropped := s.Stats().ResultsDropped
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// The S2 rows of openCarrySession pass through to the sink as well.
	if n := <-read; pooled != 0 || dropped != 0 || n != batches+1 {
		t.Fatalf("pool workers ran %d stages of %d batches; %d emissions read, %d dropped, want %d and 0",
			pooled, batches, n, dropped, batches+1)
	}
}

// TestCarriedResultsEqualHandedOff runs one feed through a 3-way join on
// two nodes twice: at MaxPending 1 with no Results subscription, so that
// every admission is carried to the sink, and with an unreachable bound and
// a Drain after each Ingest, so that every stage is handed off. Results,
// selectivity counters and the report must not tell the two apart.
func TestCarriedResultsEqualHandedOff(t *testing.T) {
	q := query.NewNWayJoin("P", 3, 100)
	cfg := DefaultConfig()
	cfg.Workers = 1
	assign := physical.Assignment{0, 1, 0}
	// batch is round r's batch of stream slot: eight rows over keys 0–3
	// whose payloads the select (threshold 30) passes three of, all
	// stamped below the session's first tick.
	batch := func(slot, r int) *stream.Batch {
		b := stream.NewSizedBatch(q.Streams[slot], 1, 8)
		for i := 0; i < 8; i++ {
			seq := uint64(8*r + i)
			ts := stream.Time(float64(r) / 10)
			b.AppendRow(seq, ts, int64(i%4), ts)[0] = float64(seq * 37 % 100)
		}
		return b
	}
	run := func(maxPending int, carried bool) (*runtime.Report, *NodeCore, map[string]int) {
		t.Helper()
		e, err := New(q, assign, 2, nil, cfg)
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
		pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1, 2}, Assign: assign}
		s, err := OpenSessionOn(e, "engine", pol, runtime.SessionOptions{MaxPending: maxPending})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for r := 0; r < 40; r++ {
			for _, slot := range []int{1, 2, 0} {
				if err := s.Ingest(ctx, batch(slot, r)); err != nil {
					t.Fatal(err)
				}
				if !carried {
					e.Drain()
				} else if p := e.Pending(); p != 0 {
					t.Fatalf("round %d: %d messages in flight after a carried Ingest returned", r, p)
				}
			}
		}
		rep, err := s.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep, e.core, got
	}
	carried, cc, cgot := run(1, true)
	handed, hc, hgot := run(1<<20, false)
	if len(hgot) == 0 || !maps.Equal(cgot, hgot) {
		t.Fatalf("carried results %v, handed-off %v", cgot, hgot)
	}
	for op := range q.Ops {
		cin, cout := cc.SelCounters(op)
		hin, hout := hc.SelCounters(op)
		if cin != hin || cout != hout {
			t.Fatalf("op %d counted %d/%d carried, %d/%d handed off", op, cout, cin, hout, hin)
		}
	}
	if cs, hs := cc.ObservedSels(), hc.ObservedSels(); !slices.Equal(cs, hs) {
		t.Fatalf("observed selectivities %v carried, %v handed off", cs, hs)
	}
	if carried.Produced != handed.Produced || carried.Ingested != handed.Ingested ||
		carried.Batches != handed.Batches || !maps.Equal(carried.PlanUse, handed.PlanUse) {
		t.Fatalf("carried report produced=%v ingested=%v batches=%d plans=%v, handed off %v/%v/%d/%v",
			carried.Produced, carried.Ingested, carried.Batches, carried.PlanUse,
			handed.Produced, handed.Ingested, handed.Batches, handed.PlanUse)
	}
}
