package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
	"rld/internal/stream"
)

// heavyBatch builds a batch of n same-key tuples on streamName at t.
func heavyBatch(streamName string, n int, t float64) *stream.Batch {
	b := stream.NewBatch(streamName)
	for j := 0; j < n; j++ {
		ts := stream.Time(t + float64(j)*1e-6)
		b.Append(&stream.Tuple{Stream: streamName, Seq: uint64(j), Ts: ts, Key: 1, Vals: []float64{10}, Arrival: ts})
	}
	return b
}

// TestSessionBackpressure pins the in-flight bound: with MaxPending 1, a
// slow probe batch in flight makes TryIngest reject with ErrBackpressure
// and makes a cancelled-context Ingest return the context error.
func TestSessionBackpressure(t *testing.T) {
	q := twoWay()
	q.Ops[0].Sel = 0.99 // selection passes ~everything through to the join
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.MaxFanout = 4
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 0}}
	s, err := OpenSession(q, 1, pol, cfg, runtime.SessionOptions{MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm the S2 join window with one hot key, then settle.
	if err := s.Ingest(ctx, heavyBatch("S2", 2000, 0)); err != nil {
		t.Fatal(err)
	}
	s.e.Drain()

	// A 2000-tuple probe against the 2000-tuple hot window takes
	// milliseconds on one worker: while it is in flight the session is at
	// its bound.
	probed := ingestInFlight(t, s, heavyBatch("S1", 2000, 1))
	if err := s.TryIngest(heavyBatch("S1", 1, 2)); !errors.Is(err, runtime.ErrBackpressure) {
		t.Fatalf("TryIngest at capacity: %v, want ErrBackpressure", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.Ingest(cancelled, heavyBatch("S1", 1, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ingest with cancelled ctx: %v, want context.Canceled", err)
	}
	if err := <-probed; err != nil {
		t.Fatal(err)
	}

	rep, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Produced == 0 {
		t.Fatal("probe produced nothing")
	}
	if err := s.TryIngest(heavyBatch("S1", 1, 3)); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("TryIngest after Close: %v, want ErrClosed", err)
	}
}

// flatBatch builds a batch of n same-key tuples all stamped exactly t, so
// a session's virtual clock lands on t with no epsilon.
func flatBatch(streamName string, n int, t float64) *stream.Batch {
	b := stream.NewBatch(streamName)
	for j := 0; j < n; j++ {
		b.Append(&stream.Tuple{Stream: streamName, Seq: uint64(j), Ts: stream.Time(t), Key: 1, Vals: []float64{10}, Arrival: stream.Time(t)})
	}
	return b
}

// ingestInFlight admits b from a second goroutine and returns once it is
// in flight: at MaxPending 1 the batch fills the bound, so its producer
// carries it and Ingest returns only after it has sunk. The channel yields
// that Ingest's error.
func ingestInFlight(t *testing.T, s *Session, b *stream.Batch) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- s.Ingest(context.Background(), b) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.e.Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the batch never went in flight")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return res
}

// blockedSession opens a 1-node, 1-worker session with MaxPending 1 and
// puts one expensive probe in flight, so the next Ingest must block on
// backpressure. The returned session is at capacity until the probe
// drains.
func blockedSession(t *testing.T) *Session {
	t.Helper()
	q := twoWay()
	q.Ops[0].Sel = 0.99
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.MaxFanout = 4
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 0}}
	s, err := OpenSession(q, 1, pol, cfg, runtime.SessionOptions{MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Ingest(ctx, heavyBatch("S2", 5000, 0)); err != nil {
		t.Fatal(err)
	}
	s.e.Drain()
	// A 5000-tuple probe against the 5000-tuple hot window takes tens of
	// milliseconds on one worker: the session stays at its bound while it
	// is in flight.
	probed := ingestInFlight(t, s, heavyBatch("S1", 5000, 1))
	t.Cleanup(func() {
		if err := <-probed; err != nil {
			t.Error(err)
		}
	})
	return s
}

// awaitBlocked waits until a producer is registered in the engine's
// pending-notifier (i.e. genuinely blocked on backpressure).
func awaitBlocked(t *testing.T, s *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.e.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never blocked on backpressure")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestSessionCloseWakesBlockedIngest pins the event-driven backpressure
// rework: a producer blocked in Ingest must be woken promptly by Close
// with ErrClosed — not stranded until a poll tick or the drain's end.
func TestSessionCloseWakesBlockedIngest(t *testing.T) {
	s := blockedSession(t)
	res := make(chan error, 1)
	go func() { res <- s.Ingest(context.Background(), heavyBatch("S1", 1, 2)) }()
	awaitBlocked(t, s)
	go s.Close(context.Background())
	select {
	case err := <-res:
		if !errors.Is(err, runtime.ErrClosed) {
			t.Fatalf("blocked Ingest woken by Close: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Ingest not woken by Close")
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCancelWakesBlockedIngest is the context half of the same
// contract: cancelling a blocked Ingest's context wakes it immediately.
func TestSessionCancelWakesBlockedIngest(t *testing.T) {
	s := blockedSession(t)
	defer s.Close(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- s.Ingest(ctx, heavyBatch("S1", 1, 2)) }()
	awaitBlocked(t, s)
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked Ingest woken by cancel: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Ingest not woken by context cancellation")
	}
}

// TestSessionManyWaitersAllWake loads the pending notifier's waiter list:
// eight producers share a one-message bound, so almost every Ingest
// registers, and every seventh waits on a context that expires within
// microseconds — withdrawing from the list, or handing back the token a
// concurrent wakeup had already given it. No producer may be stranded and
// every admitted batch must be counted.
func TestSessionManyWaitersAllWake(t *testing.T) {
	q := twoWay()
	cfg := DefaultConfig()
	cfg.Workers = 2
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, cfg, runtime.SessionOptions{MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 8, 200
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				impatient := i%7 == p%7
				if impatient {
					ctx, cancel = context.WithTimeout(ctx, 20*time.Microsecond)
				}
				err := s.Ingest(ctx, flatBatch(q.Streams[p%2], 4, 1))
				cancel()
				switch {
				case err == nil:
					admitted.Add(1)
				case impatient && errors.Is(err, context.DeadlineExceeded):
				default:
					t.Errorf("producer %d batch %d: %v", p, i, err)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("producers stranded on backpressure")
	}
	rep, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != admitted.Load() {
		t.Fatalf("report counts %d batches, producers had %d admitted", rep.Batches, admitted.Load())
	}
	if n := s.e.waiters.Load(); n != 0 {
		t.Fatalf("%d waiters still registered after Close", n)
	}
}

// TestSessionStatsAdmissionConsistency pins the Stats critical section:
// the counter snapshot is taken under the session lock, so the
// admission-side fields cannot tear — whenever the virtual clock reads t,
// every batch that advanced it to t is already counted. (The old code
// snapshotted counters before acquiring the lock, so Ingested could lag
// VirtualTime by whatever was admitted while Stats waited.)
func TestSessionStatsAdmissionConsistency(t *testing.T) {
	q := twoWay()
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, Config{}, runtime.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const perBatch = 10
	stop := make(chan struct{})
	bad := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Ingested < perBatch*st.VirtualTime {
				select {
				case bad <- fmt.Sprintf("ingested=%v < %d*virtualTime=%v", st.Ingested, perBatch, perBatch*st.VirtualTime):
				default:
				}
				return
			}
		}
	}()
	ctx := context.Background()
	for i := 1; i <= 300; i++ {
		if err := s.Ingest(ctx, flatBatch("S1", perBatch, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	select {
	case msg := <-bad:
		t.Fatalf("inconsistent Stats snapshot: %s", msg)
	default:
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionOffersVirtualTime pins the offerStats clock fix: monitor
// offers made during a session are stamped with the session's virtual
// clock, not wall time, so the observed-stats timeline matches the
// simulator's.
func TestSessionOffersVirtualTime(t *testing.T) {
	q := twoWay()
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, Config{}, runtime.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Ingest(ctx, flatBatch("S1", 5, 42)); err != nil { // crosses the first tick, which offers
		t.Fatal(err)
	}
	if got := s.e.monitor.Snapshot().Time; got != 42 {
		t.Fatalf("monitor offer stamped %v, want the virtual time 42", got)
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// selectOnly is a one-stream query whose only operator is a selection.
func selectOnly() *query.Query {
	return &query.Query{
		Name: "SEL", Streams: []string{"S"}, Rates: map[string]float64{"S": 10}, WindowSeconds: 60,
		Ops: []query.Operator{{ID: 0, Name: "op1", Kind: query.Select, Cost: 1, Sel: 0.3, Stream: "S"}},
	}
}

// snapRecorder is a static policy that keeps every snapshot it classifies
// a batch on, in admission order.
type snapRecorder struct {
	runtime.StaticPolicy
	snaps []stats.Snapshot
}

func (p *snapRecorder) PlanFor(_ float64, snap stats.Snapshot) query.Plan {
	p.snaps = append(p.snaps, snap)
	return p.Plan
}

// TestTickOfferSeesSettledCounts pins the monitor's one clock: the control
// tick offers once per crossing, after its Drain, so with four workers and
// no bound on the batches in flight the offer still counts every batch
// admitted before it, and nothing else offers. Each batch must classify on exactly
// the EWMA, worked out here, of the exact pass fraction over every batch
// admitted before the last tick it follows.
func TestTickOfferSeesSettledCounts(t *testing.T) {
	q := selectOnly()
	cfg := DefaultConfig()
	cfg.Workers = 4
	pol := &snapRecorder{StaticPolicy: runtime.StaticPolicy{PolicyName: "REC", Plan: query.Plan{0}, Assign: physical.Assignment{0}}}
	s, err := OpenSession(q, 1, pol, cfg, runtime.SessionOptions{MaxPending: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const (
		batches = 200
		size    = 40
		step    = 0.3 // virtual seconds between batches: a tick every 16 or 17
	)
	threshold := q.Ops[0].Sel * cfg.SelectThresholdScale
	rng := rand.New(rand.NewSource(7))
	// want is the snapshot the next batch must see: the estimates until the
	// first tick, then the monitor's EWMA (alpha 0.5, first offer taken as
	// is) of the cumulative pass fraction at each tick.
	want := stats.Snapshot{Sels: []float64{q.Ops[0].Sel}, Rates: map[string]float64{"S": q.Rates["S"]}}
	var in, out int
	nextTick, primed := 5.0, false
	for i := 0; i < batches; i++ {
		ts := step * float64(i+1)
		b := stream.NewSizedBatch("S", 1, size)
		for j := 0; j < size; j++ {
			v := rng.Float64() * 100
			b.Append(&stream.Tuple{Stream: "S", Seq: uint64(i*size + j), Ts: stream.Time(ts), Key: int64(j), Vals: []float64{v}})
			if v < threshold {
				out++
			}
		}
		in += size
		if err := s.Ingest(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		if got := pol.snaps[i]; got.Time != want.Time || got.Sels[0] != want.Sels[0] || got.Rates["S"] != want.Rates["S"] {
			t.Fatalf("batch %d classified on %+v, want %+v", i, got, want)
		}
		if ts < nextTick {
			continue
		}
		for nextTick <= ts {
			nextTick += 5
		}
		sel, rate := float64(out)/float64(in), float64(in)
		if primed {
			sel, rate = 0.5*sel+0.5*want.Sels[0], 0.5*rate+0.5*want.Rates["S"]
		}
		want = stats.Snapshot{Time: ts, Sels: []float64{sel}, Rates: map[string]float64{"S": rate}}
		primed = true
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionManualRecoveryVsScriptedEdge pins the interaction between
// the session's manual Crash/Recover and a scripted fault schedule: a
// caller recovering a node before its scripted recovery edge must not be
// double-booked when the edge later fires (phantom downtime, duplicate
// events).
func TestSessionManualRecoveryVsScriptedEdge(t *testing.T) {
	q := twoWay()
	fp := &chaos.FaultPlan{
		Mode:   chaos.Checkpoint,
		Faults: []chaos.Fault{{Kind: chaos.Crash, Node: 1, At: 100, Until: 200}},
	}
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, Config{}, runtime.SessionOptions{Faults: fp, EventBuffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Ingest(ctx, heavyBatch("S1", 5, 120)); err != nil { // fires the crash edge at t=100
		t.Fatal(err)
	}
	if err := s.Ingest(ctx, heavyBatch("S1", 5, 150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(1); err != nil { // manual recovery at t=150
		t.Fatal(err)
	}
	if err := s.Ingest(ctx, heavyBatch("S1", 5, 250)); err != nil { // scripted edge at t=200: must no-op
		t.Fatal(err)
	}
	rep, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DownSeconds < 50 || rep.DownSeconds > 50.001 {
		t.Errorf("down seconds = %v, want ≈50 (crash@100, manual recovery@150)", rep.DownSeconds)
	}
	crashes, recoveries := 0, 0
	for ev := range s.Events() {
		switch ev.Kind {
		case runtime.EventCrash:
			crashes++
		case runtime.EventRecovery:
			recoveries++
		}
	}
	if crashes != 1 || recoveries != 1 {
		t.Errorf("crash/recovery events = %d/%d, want 1/1", crashes, recoveries)
	}
}

// TestSessionSwapPolicyValidation pins the swap guard rails.
func TestSessionSwapPolicyValidation(t *testing.T) {
	q := twoWay()
	pol := &runtime.StaticPolicy{PolicyName: "A", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, Config{}, runtime.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if err := s.SwapPolicy(nil); err == nil {
		t.Fatal("swap to nil policy accepted")
	}
	bad := &runtime.StaticPolicy{PolicyName: "B", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0}}
	if err := s.SwapPolicy(bad); !errors.Is(err, runtime.ErrBadPlacement) {
		t.Fatalf("swap to short placement: %v, want runtime.ErrBadPlacement", err)
	}
	good := &runtime.StaticPolicy{PolicyName: "B", Plan: query.Plan{1, 0}, Assign: physical.Assignment{1, 0}}
	if err := s.SwapPolicy(good); err != nil {
		t.Fatalf("valid swap: %v", err)
	}
	if st := s.Stats(); st.PolicySwaps != 1 || st.Policy != "B" {
		t.Fatalf("stats after swap: %+v", st)
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

// TestSessionClockIgnoresNonPositiveTimestamps pins the one clock rule: a
// non-positive timestamp leaves the virtual clock where it is, so a stray
// negative stamp at the start cannot freeze the clock — and with it every
// control tick — for the rest of the run.
func TestSessionClockIgnoresNonPositiveTimestamps(t *testing.T) {
	for _, first := range []float64{-1, 0.5} {
		// migrated: true: the policy only records its ticks.
		pol := &recordingPolicy{StaticPolicy: runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 0}}, migrated: true}
		s, err := OpenSession(twoWay(), 1, pol, Config{}, runtime.SessionOptions{TickEvery: 5})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := s.Ingest(ctx, flatBatch("S1", 1, first)); err != nil {
			t.Fatal(err)
		}
		for ts := 1; ts <= 30; ts++ {
			if err := s.Ingest(ctx, flatBatch("S1", 1, float64(ts))); err != nil {
				t.Fatal(err)
			}
		}
		if vt := s.Stats().VirtualTime; vt != 30 {
			t.Errorf("first ts %v: virtual time %v, want 30", first, vt)
		}
		if _, err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if len(pol.ticks) != 6 {
			t.Errorf("first ts %v: %d control ticks %v, want 6 (t=5..30)", first, len(pol.ticks), pol.ticks)
		}
	}
}

// alternatingPolicy is a static policy whose every second PlanFor returns
// alt instead of Plan.
type alternatingPolicy struct {
	runtime.StaticPolicy
	alt   query.Plan
	calls int
}

func (p *alternatingPolicy) PlanFor(float64, stats.Snapshot) query.Plan {
	p.calls++
	if p.calls%2 == 0 {
		return p.alt
	}
	return p.Plan
}

// TestPlanSwitchEventsMatchCount pins the one plan-switch detector: every
// switch the report counts is one EventPlanSwitch delivered or dropped, and
// nothing else is — not a plan the router rejected, and not a switch seen in
// a different order than the router accounted it.
func TestPlanSwitchEventsMatchCount(t *testing.T) {
	for _, tc := range []struct {
		name      string
		alt       query.Plan
		producers int
		perProd   int
	}{
		{"invalid-every-other", query.Plan{7, 7}, 1, 10},
		{"concurrent-valid", query.Plan{1, 0}, 4, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := twoWay()
			pol := &alternatingPolicy{
				StaticPolicy: runtime.StaticPolicy{PolicyName: "ALT", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}},
				alt:          tc.alt,
			}
			s, err := OpenSession(q, 2, pol, Config{}, runtime.SessionOptions{EventBuffer: 256})
			if err != nil {
				t.Fatal(err)
			}
			var rejected atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < tc.producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 1; i <= tc.perProd; i++ {
						err := s.Ingest(context.Background(), flatBatch(q.Streams[p%2], 2, float64(i)))
						switch {
						case errors.Is(err, ErrInvalidPlan):
							rejected.Add(1)
						case err != nil:
							t.Errorf("producer %d batch %d: %v", p, i, err)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			rep, err := s.Close(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			events := 0
			for ev := range s.Events() {
				if ev.Kind == runtime.EventPlanSwitch {
					events++
				}
			}
			dropped := s.Stats().EventsDropped
			wantRejected := int64(0)
			if !tc.alt.Valid(q) {
				wantRejected = int64(tc.producers * tc.perProd / 2)
			}
			if rejected.Load() != wantRejected {
				t.Fatalf("%d batches rejected with alternate plan %v, want %d", rejected.Load(), tc.alt, wantRejected)
			}
			if int64(events)+dropped != int64(rep.PlanSwitches) {
				t.Fatalf("%d plan-switch events + %d dropped, report counts %d switches (%d batches rejected)",
					events, dropped, rep.PlanSwitches, rejected.Load())
			}
		})
	}
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
	ses, err := OpenSession(q, 2, pol, DefaultConfig(), runtime.SessionOptions{TickEvery: 10})
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
	if _, err := OpenSession(nil, 1, &runtime.StaticPolicy{}, Config{}, runtime.SessionOptions{}); err == nil {
		t.Fatal("session without a query must error")
	}
	// A policy whose placement does not fit the node count must error.
	pol := &runtime.StaticPolicy{Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 5}}
	if _, err := OpenSession(twoWay(), 1, pol, DefaultConfig(), runtime.SessionOptions{}); err == nil {
		t.Fatal("out-of-range placement must error")
	}
}
