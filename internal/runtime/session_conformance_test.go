package runtime_test

// Session-protocol conformance: the simulator agrees with itself fed its
// scenario's own arrivals or the live substrates' tuples, the sim and
// engine sessions honour the same subscription protocol, and on all three
// substrates the outbox keeps its contract, control errors are typed alike,
// a batch of an unknown stream is refused, and a closed session answers
// ErrClosed.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/cluster"
	"rld/internal/engine"
	"rld/internal/netrt"
	"rld/internal/query"
	rt "rld/internal/runtime"
	"rld/internal/sim"
	"rld/internal/stats"
	"rld/internal/stream"
)

// TestSessionVsExecutorConformance runs the simulator on two feeds — the
// scenario's own arrival processes, and the live substrates' tuple Feed
// (the adapter abstracts batches to counts at their timestamps): the
// produced/ingested ratios must agree within 15%.
func TestSessionVsExecutorConformance(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	}
	self, err := simRunner(q, cl)(mkPol(), nil)
	if err != nil {
		t.Fatalf("sim on its own arrivals: %v", err)
	}
	ses, err := openers(q, cl, mkPol, liveConfig(), liveOptions(nil))["sim"]()
	if err != nil {
		t.Fatal(err)
	}
	fed, err := rt.Replay(context.Background(), ses, conformanceFeed(q))
	if err != nil {
		t.Fatalf("sim session replay: %v", err)
	}
	rSelf, rFed := self.OutputRatio(), fed.OutputRatio()
	t.Logf("own-arrivals ratio %.4f (produced %.0f), tuple-feed ratio %.4f (produced %.0f)",
		rSelf, self.Produced, rFed, fed.Produced)
	if fed.Produced == 0 {
		t.Fatal("sim session produced nothing")
	}
	if math.Abs(rFed-rSelf) > 0.15*rSelf {
		t.Errorf("tuple-feed ratio %.4f vs own-arrivals ratio %.4f (>15%%)", rFed, rSelf)
	}
	if fed.Substrate != "sim" {
		t.Errorf("session substrate %q, want sim", fed.Substrate)
	}
}

// TestSessionResultsAndEvents pins the subscription protocol on both
// substrates: result emissions sum to the report's produced count, a
// scripted crash+recovery surfaces as events, and live Stats track the
// run.
func TestSessionResultsAndEvents(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	}
	fp := confFaultPlan(chaos.Checkpoint)
	ctx := context.Background()

	opts := liveOptions(fp)
	opts.ResultBuffer, opts.EventBuffer = 1<<15, 4096
	open := openers(q, cl, mkPol, liveConfig(), opts)
	for _, name := range []string{"engine", "sim"} {
		ses, err := open[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		feed := conformanceFeed(q)
		for b := feed.Next(); b != nil; b = feed.Next() {
			if err := ses.Ingest(ctx, b); err != nil {
				t.Fatalf("%s ingest: %v", name, err)
			}
		}
		mid := ses.Stats()
		if mid.Ingested == 0 || mid.VirtualTime == 0 {
			t.Errorf("%s: live stats empty mid-run: %+v", name, mid)
		}
		rep, err := ses.Close(ctx)
		if err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
		if _, err := ses.Close(ctx); err != nil {
			t.Errorf("%s: second Close errored: %v", name, err)
		}
		if err := ses.Ingest(ctx, feedBatch(q)); err != rt.ErrClosed {
			t.Errorf("%s: ingest after Close: %v, want ErrClosed", name, err)
		}

		var resultSum float64
		for rb := range ses.Results() {
			resultSum += rb.Count
		}
		if math.Abs(resultSum-rep.Produced) > 1e-6 {
			t.Errorf("%s: result stream sum %.2f != report produced %.2f", name, resultSum, rep.Produced)
		}
		kinds := map[rt.EventKind]int{}
		for ev := range ses.Events() {
			kinds[ev.Kind]++
		}
		if kinds[rt.EventCrash] != 1 || kinds[rt.EventRecovery] != 1 {
			t.Errorf("%s: crash/recovery events = %d/%d, want 1/1 (%v)",
				name, kinds[rt.EventCrash], kinds[rt.EventRecovery], kinds)
		}
		if rep.Crashes != 1 {
			t.Errorf("%s: report crashes = %d, want 1", name, rep.Crashes)
		}
		if st := ses.Stats(); st.ResultsDropped != 0 {
			t.Errorf("%s: dropped %d results despite ample buffer", name, st.ResultsDropped)
		}
	}
}

// openers returns, per substrate, a function opening a session of the
// conformance workload under a fresh policy from pol: all three from the one
// set of session options, the live ones on engine configuration cfg.
func openers(q *query.Query, cl *cluster.Cluster, pol func() rt.Policy, cfg engine.Config, opts rt.SessionOptions) map[string]func() (rt.Session, error) {
	return map[string]func() (rt.Session, error){
		"sim": func() (rt.Session, error) {
			return sim.OpenSession(&sim.Scenario{Query: q, Cluster: cl}, pol(), opts)
		},
		"engine": func() (rt.Session, error) {
			return engine.OpenSession(q, cl.N(), pol(), cfg, opts)
		},
		"net": func() (rt.Session, error) {
			return netrt.OpenSession(q, cl.N(), pol(), cfg, opts, nil)
		},
	}
}

// TestSessionVirtualTimeIsMaxTimestamp pins the one clock rule on every
// substrate: a batch advances virtual time to its maximum timestamp, not its
// last row's, so a batch whose rows arrive out of order stamps the same time
// on sim, engine and net.
func TestSessionVirtualTimeIsMaxTimestamp(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	}
	ctx := context.Background()
	for name, open := range openers(q, cl, mkPol, liveConfig(), liveOptions(nil)) {
		ses, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := stream.NewBatch(q.Streams[0])
		for i, ts := range []stream.Time{3, 7, 5} {
			b.Append(&stream.Tuple{Stream: q.Streams[0], Seq: uint64(i), Ts: ts, Key: 1, Vals: []float64{10}, Arrival: ts})
		}
		if err := ses.Ingest(ctx, b); err != nil {
			t.Fatalf("%s ingest: %v", name, err)
		}
		if vt := ses.Stats().VirtualTime; vt != 7 {
			t.Errorf("%s: virtual time %v after a batch stamped 3, 7, 5; want its maximum 7", name, vt)
		}
		if _, err := ses.Close(ctx); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}
}

// TestSessionRefusesUnknownStream: on every substrate a batch of a stream
// the query does not name fails with ErrUnknownStream before anything
// changes — its later timestamp does not move the virtual clock, and no
// counter moves — and the session goes on admitting valid batches. Produced
// and Pending are left out of the comparison: the live substrates may still
// be processing the batch admitted before.
func TestSessionRefusesUnknownStream(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	}
	ctx := context.Background()
	batch := func(st string, ts stream.Time) *stream.Batch {
		b := stream.NewBatch(st)
		b.Append(&stream.Tuple{Stream: st, Ts: ts, Key: 1, Vals: []float64{10}, Arrival: ts})
		return b
	}
	settled := func(st rt.SessionStats) rt.SessionStats {
		st.Produced, st.Pending = 0, 0
		return st
	}
	for name, open := range openers(q, cl, mkPol, liveConfig(), liveOptions(nil)) {
		t.Run(name, func(t *testing.T) {
			ses, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer ses.Close(ctx)
			if err := ses.Ingest(ctx, batch(q.Streams[0], 3)); err != nil {
				t.Fatal(err)
			}
			before := settled(ses.Stats())
			bad := batch("NOPE", 50)
			if err := ses.Ingest(ctx, bad); !errors.Is(err, rt.ErrUnknownStream) {
				t.Fatalf("Ingest of stream NOPE = %v, want ErrUnknownStream", err)
			}
			if err := ses.TryIngest(bad); !errors.Is(err, rt.ErrUnknownStream) {
				t.Fatalf("TryIngest of stream NOPE = %v, want ErrUnknownStream", err)
			}
			if after := settled(ses.Stats()); after != before {
				t.Fatalf("refused batch changed the stats:\nbefore %+v\nafter  %+v", before, after)
			}
			if err := ses.Ingest(ctx, batch(q.Streams[1], 4)); err != nil {
				t.Fatalf("valid batch after the refused one: %v", err)
			}
			if st := ses.Stats(); st.Batches != before.Batches+1 || st.VirtualTime != 4 {
				t.Fatalf("after the next valid batch: %d batches at t=%v, want %d at t=4", st.Batches, st.VirtualTime, before.Batches+1)
			}
		})
	}
}

// TestClosedSessionAnswersErrClosed: on every substrate, once Close has been
// called — whether it returned the report, or its context had already expired
// and the shutdown finished behind the caller's back — every operation
// answers ErrClosed, and never a substrate's own lifecycle error (the
// engine's ErrStopped/ErrNotStarted): the session checks its closed flag
// before the router can be asked.
func TestClosedSessionAnswersErrClosed(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	}
	open := openers(q, cl, mkPol, liveConfig(), liveOptions(nil))
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for _, closeCtx := range []struct {
		name string
		ctx  context.Context
	}{{"closed", context.Background()}, {"closed on an expired context", expired}} {
		for name, openSession := range open {
			ses, err := openSession()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ctx := context.Background()
			feed := conformanceFeed(q)
			for i := 0; i < 4; i++ {
				if err := ses.Ingest(ctx, feed.Next()); err != nil {
					t.Fatalf("%s ingest: %v", name, err)
				}
			}
			ops := map[string]func() error{
				"Ingest":     func() error { return ses.Ingest(ctx, feedBatch(q)) },
				"TryIngest":  func() error { return ses.TryIngest(feedBatch(q)) },
				"SwapPolicy": func() error { return ses.SwapPolicy(mkPol()) },
				"Migrate":    func() error { return ses.Migrate(1, 0) },
				"Crash":      func() error { return ses.Crash(1) },
				"Recover":    func() error { return ses.Recover(1) },
			}
			check := func(when string) {
				for op, call := range ops {
					if err := call(); err != rt.ErrClosed {
						t.Errorf("%s, %s, %s: %s returned %v, want ErrClosed", name, closeCtx.name, when, op, err)
					}
				}
			}
			// A Close on an expired context may report the expiry and finish
			// in the background, or finish at once when nothing is in flight.
			if _, err := ses.Close(closeCtx.ctx); err != nil && err != closeCtx.ctx.Err() {
				t.Fatalf("%s, %s: Close: %v", name, closeCtx.name, err)
			}
			check("as Close returns")
			rep, err := ses.Close(ctx) // waits for a background shutdown
			if err != nil || rep == nil || rep.Substrate != name {
				t.Fatalf("%s, %s: second Close returned (%+v, %v)", name, closeCtx.name, rep, err)
			}
			check("after the shutdown finished")
		}
	}
}

// TestSessionControlErrorsAreTyped: a control operation naming a node or
// operator outside the deployment, or a policy whose placement misses an
// operator, fails with the same sentinel on every substrate.
func TestSessionControlErrorsAreTyped(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	}
	short := &rt.StaticPolicy{PolicyName: "SHORT", Plan: query.Plan{1, 0}, Assign: []int{0}}
	ctx := context.Background()
	for name, open := range openers(q, cl, mkPol, liveConfig(), liveOptions(nil)) {
		ses, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tc := range []struct {
			call string
			do   func() error
			want error
		}{
			{"Crash(99)", func() error { return ses.Crash(99) }, rt.ErrUnknownNode},
			{"Recover(-1)", func() error { return ses.Recover(-1) }, rt.ErrUnknownNode},
			{"Migrate(9, 0)", func() error { return ses.Migrate(9, 0) }, rt.ErrUnknownOp},
			{"Migrate(0, 99)", func() error { return ses.Migrate(0, 99) }, rt.ErrUnknownNode},
			{"SwapPolicy(one-op placement)", func() error { return ses.SwapPolicy(short) }, rt.ErrBadPlacement},
		} {
			if err := tc.do(); !errors.Is(err, tc.want) {
				t.Errorf("%s: %s returned %v, want %v", name, tc.call, err, tc.want)
			}
		}
		if _, err := ses.Close(ctx); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}
}

// TestSessionOutboxContract pins the subscription contract on every
// substrate. The same deterministic run — scripted checkpoints and a
// slowdown, a crash and a recovery, a policy swap, and a policy whose plan
// alternates — goes once with one-slot buffers nobody reads and once fully
// buffered: per stream, what the first run delivered plus what it dropped is
// what the second delivered. Close closes both channels, and a second Close
// returns the same report. One batch is in flight at a time on one worker
// per node, and the outage waits for the pipeline to drain at both edges, so
// the live runs emit the same sequence every time.
func TestSessionOutboxContract(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &alternating{StaticPolicy: rt.StaticPolicy{PolicyName: "ALT", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}}
	}
	fp := &chaos.FaultPlan{
		Mode:            chaos.Checkpoint,
		CheckpointEvery: 60,
		Faults:          []chaos.Fault{{Kind: chaos.Slowdown, Node: 0, At: 300, Until: 360, Factor: 0.5}},
	}
	cfg := liveConfig()
	cfg.Workers = 1
	ctx := context.Background()
	// run returns, per stream, the emissions delivered and dropped.
	run := func(name string, buf int) (results, events [2]int64) {
		t.Helper()
		opts := liveOptions(fp)
		opts.MaxPending, opts.ResultBuffer, opts.EventBuffer = 1, buf, buf
		ses, err := openers(q, cl, mkPol, cfg, opts)[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		quiesce := func() {
			for deadline := time.Now().Add(10 * time.Second); ses.Stats().Pending > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: pipeline never drained", name)
				}
			}
		}
		feed := conformanceFeed(q)
		for i, b := 0, feed.Next(); b != nil; i, b = i+1, feed.Next() {
			switch i {
			case 40:
				quiesce()
				err = ses.Crash(1)
			case 60:
				err = ses.Recover(1)
				quiesce()
			case 80:
				err = ses.SwapPolicy(mkPol())
			}
			if err != nil {
				t.Fatalf("%s, batch %d: %v", name, i, err)
			}
			if err := ses.Ingest(ctx, b); err != nil {
				t.Fatalf("%s ingest: %v", name, err)
			}
		}
		rep, err := ses.Close(ctx)
		if err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
		if again, err := ses.Close(ctx); err != nil || again != rep {
			t.Errorf("%s: second Close returned (%p, %v), want the first report %p", name, again, err, rep)
		}
		st := ses.Stats()
		var closed bool
		if results[0], closed = drained(ses.Results()); !closed {
			t.Errorf("%s: Results still open after Close", name)
		}
		if events[0], closed = drained(ses.Events()); !closed {
			t.Errorf("%s: Events still open after Close", name)
		}
		results[1], events[1] = st.ResultsDropped, st.EventsDropped
		return results, events
	}
	for _, name := range []string{"sim", "engine", "net"} {
		fullRes, fullEv := run(name, 1<<15)
		if fullRes[1] != 0 || fullEv[1] != 0 {
			t.Errorf("%s: fully buffered run dropped %d results, %d events", name, fullRes[1], fullEv[1])
		}
		res, ev := run(name, 1)
		t.Logf("%s: results %d = %d delivered + %d dropped, events %d = %d + %d", name,
			fullRes[0], res[0], res[1], fullEv[0], ev[0], ev[1])
		if res[1] == 0 || ev[1] == 0 {
			t.Errorf("%s: one-slot buffers dropped %d results, %d events; the run must overflow both", name, res[1], ev[1])
		}
		if res[0]+res[1] != fullRes[0] {
			t.Errorf("%s: one-slot results %d delivered + %d dropped, full run delivered %d", name, res[0], res[1], fullRes[0])
		}
		if ev[0]+ev[1] != fullEv[0] {
			t.Errorf("%s: one-slot events %d delivered + %d dropped, full run delivered %d", name, ev[0], ev[1], fullEv[0])
		}
	}
}

// alternating is a static policy whose plan flips between its own and the
// reverse every tenth batch, so the run switches plans a fixed number of
// times.
type alternating struct {
	rt.StaticPolicy
	calls int
}

func (p *alternating) PlanFor(float64, stats.Snapshot) query.Plan {
	p.calls++
	if p.calls/10%2 == 1 {
		return query.Plan{p.Plan[1], p.Plan[0]}
	}
	return p.Plan
}

// drained empties a closed channel without blocking: it returns how many
// values were left and whether the channel was closed behind them.
func drained[T any](ch <-chan T) (n int64, closed bool) {
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return n, true
			}
			n++
		default:
			return n, false
		}
	}
}

// TestNilInputsAreErrors pins that the run surface reports a missing input
// as an error — never a panic — and leaves nothing running behind it.
func TestNilInputsAreErrors(t *testing.T) {
	q := conformanceQuery()
	pol := &rt.StaticPolicy{Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"net session without a policy", func() error {
			_, err := netrt.OpenSession(q, 2, nil, engine.Config{}, rt.SessionOptions{}, nil)
			return err
		}},
		{"net session without a query", func() error {
			_, err := netrt.OpenSession(nil, 2, pol, engine.Config{}, rt.SessionOptions{}, nil)
			return err
		}},
		{"replay without a feed", func() error {
			ses, err := engine.OpenSession(q, 2, pol, liveConfig(), liveOptions(nil))
			if err != nil {
				t.Fatal(err)
			}
			_, err = rt.Replay(ctx, ses, nil)
			if ierr := ses.Ingest(ctx, feedBatch(q)); ierr != rt.ErrClosed {
				t.Errorf("ingest after a rejected replay: %v, want ErrClosed (session left open)", ierr)
			}
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// feedBatch builds a minimal post-close probe batch.
func feedBatch(q *query.Query) *stream.Batch {
	b := stream.NewBatch(q.Streams[0])
	ts := stream.Time(confHorizon + 1)
	b.Append(&stream.Tuple{Stream: q.Streams[0], Ts: ts, Key: 1, Vals: []float64{10}, Arrival: ts})
	return b
}
