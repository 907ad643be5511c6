package runtime_test

// Session-protocol conformance: the simulator's two ways of being driven
// agree, the sim and engine sessions honour the same subscription protocol,
// and a closed session answers ErrClosed on all three substrates.

import (
	"context"
	"math"
	"testing"

	"rld/internal/chaos"
	"rld/internal/cluster"
	"rld/internal/engine"
	"rld/internal/netrt"
	"rld/internal/query"
	rt "rld/internal/runtime"
	"rld/internal/sim"
	"rld/internal/stream"
)

// openSimSession opens an externally fed simulator session of the
// calibrated conformance workload (virtual-time adapter; it waits for
// Ingest).
func openSimSession(t *testing.T, q *query.Query, cl *cluster.Cluster, pol rt.Policy, fp *chaos.FaultPlan, buf int) rt.Session {
	t.Helper()
	sc := &sim.Scenario{
		Query:   q,
		Cluster: cl,
		Horizon: confHorizon,
		Faults:  fp,
	}
	ss, err := sim.OpenSession(sc, pol, sim.SessionOptions{
		ResultBuffer: buf,
		EventBuffer:  4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// openConformanceSessions builds one session per substrate for the
// calibrated conformance workload: the engine session natively, the sim
// session through its virtual-time adapter.
func openConformanceSessions(t *testing.T, q *query.Query, cl *cluster.Cluster, pol func() rt.Policy, fp *chaos.FaultPlan, buf int) map[string]rt.Session {
	t.Helper()
	opts := liveOptions(fp)
	opts.ResultBuffer, opts.EventBuffer = buf, 4096
	eng, err := engine.OpenSession(q, cl.N(), pol(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]rt.Session{"engine": eng, "sim": openSimSession(t, q, cl, pol(), fp, buf)}
}

// TestSessionVsExecutorConformance runs the simulator both ways — driving
// itself off the scenario's arrival processes, and as a session fed the
// live substrates' tuple Feed (the adapter abstracts batches to counts at
// their timestamps): the produced/ingested ratios must agree within 15%.
func TestSessionVsExecutorConformance(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	}
	self, err := simRunner(q, cl)(mkPol(), nil)
	if err != nil {
		t.Fatalf("self-driven sim: %v", err)
	}
	fed, err := rt.Replay(context.Background(), openSimSession(t, q, cl, mkPol(), nil, 0), conformanceFeed(q))
	if err != nil {
		t.Fatalf("sim session replay: %v", err)
	}
	rSelf, rFed := self.OutputRatio(), fed.OutputRatio()
	t.Logf("self-driven ratio %.4f (produced %.0f), session ratio %.4f (produced %.0f)",
		rSelf, self.Produced, rFed, fed.Produced)
	if fed.Produced == 0 {
		t.Fatal("sim session produced nothing")
	}
	if math.Abs(rFed-rSelf) > 0.15*rSelf {
		t.Errorf("session ratio %.4f vs self-driven ratio %.4f (>15%%)", rFed, rSelf)
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

	for name, ses := range openConformanceSessions(t, q, cl, mkPol, fp, 1<<15) {
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

// openers returns, per substrate, a function opening a fault-free session
// of the conformance workload under a fresh policy from pol.
func openers(t *testing.T, q *query.Query, cl *cluster.Cluster, pol func() rt.Policy) map[string]func() (rt.Session, error) {
	return map[string]func() (rt.Session, error){
		"sim": func() (rt.Session, error) { return openSimSession(t, q, cl, pol(), nil, 0), nil },
		"engine": func() (rt.Session, error) {
			return engine.OpenSession(q, cl.N(), pol(), liveOptions(nil))
		},
		"net": func() (rt.Session, error) {
			return netrt.OpenSession(q, cl.N(), pol(), liveOptions(nil), nil)
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
	for name, open := range openers(t, q, cl, mkPol) {
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
	open := openers(t, q, cl, mkPol)
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
			_, err := netrt.OpenSession(q, 2, nil, engine.SessionOptions{}, nil)
			return err
		}},
		{"net session without a query", func() error {
			_, err := netrt.OpenSession(nil, 2, pol, engine.SessionOptions{}, nil)
			return err
		}},
		{"replay without a feed", func() error {
			ses, err := engine.OpenSession(q, 2, pol, liveOptions(nil))
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
