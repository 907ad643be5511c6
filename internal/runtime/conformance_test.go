package runtime_test

// Cross-substrate conformance: the same query, feed, and policy executed on
// the discrete-event simulator and on the live sharded engine must agree on
// produced-result counts within tolerance. The simulator reduces each batch
// by every operator's selectivity (out = in × Πδ); the engine pushes real
// tuples through selections and windowed hash joins. The workload below is
// calibrated so the two semantics coincide:
//
//   - op0 is a selection on S1 with δ1: the engine passes Uniform(0,100)
//     payloads under threshold δ1×100, matching the model exactly;
//   - op1 is a join on S2 with δ2: a surviving S1 tuple probing S2's 60 s
//     window of L tuples fans out to ≈ L/D matches for keys uniform over a
//     domain of size D, so D is chosen to make the analytic engine output
//     ratio (k·δ1·L/D + 1)/(k+1) equal the simulator's δ1·δ2, where k is
//     the S1:S2 rate ratio (S2 batches pass both stages untouched: the
//     selection is not theirs and the join is trivially satisfied on its
//     own stream).

import (
	"context"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"rld/internal/baseline"
	"rld/internal/chaos"
	"rld/internal/cluster"
	"rld/internal/core"
	"rld/internal/engine"
	"rld/internal/gen"
	"rld/internal/netrt"
	"rld/internal/paramspace"
	"rld/internal/query"
	rt "rld/internal/runtime"
	"rld/internal/sim"
	"rld/internal/stats"
)

const (
	confDelta1  = 0.5 // op0 (select on S1) selectivity
	confDelta2  = 0.9 // op1 (join on S2) selectivity
	confRate1   = 9.0 // S1 tuples/sec
	confRate2   = 1.0 // S2 tuples/sec
	confHorizon = 600.0
	confBatch   = 50
)

// conformanceQuery builds the calibrated 2-operator query.
func conformanceQuery() *query.Query {
	q := query.NewNWayJoin("CONF", 2, confRate2)
	q.Rates["S1"] = confRate1
	q.Rates["S2"] = confRate2
	q.Ops[0].Sel = confDelta1
	q.Ops[1].Sel = confDelta2
	return q
}

// keyDomain returns the uniform key-domain size D that makes the engine's
// analytic output ratio equal the simulator's δ1·δ2. Uniform keys give a
// per-pair match probability of 1/D with no hot-key concentration, so the
// realized fanout has low variance across runs (a hot-key mix would make
// the window's hot-tuple count a high-CV binomial and the test flaky).
func keyDomain(winLen float64) int64 {
	k := confRate1 / confRate2
	// (k·δ1·L/D + 1)/(k+1) = δ1·δ2  ⇒  D = k·δ1·L/((k+1)·δ1·δ2 − 1)
	return int64(math.Round(k * confDelta1 * winLen / ((k+1)*confDelta1*confDelta2 - 1)))
}

// conformancePolicies builds RLD, ROD, and DYN for the query.
func conformancePolicies(t *testing.T, q *query.Query, cl *cluster.Cluster) []rt.Policy {
	t.Helper()
	dims := []paramspace.Dim{paramspace.SelDim(0, q.Ops[0].Sel, 3)}
	cfg := core.DefaultConfig()
	cfg.Steps = 4
	dep, err := core.Optimize(q, dims, cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rod, err := baseline.NewROD(dep.Ev, cl)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := baseline.NewDYN(dep.Ev, cl, baseline.DefaultDYNConfig())
	if err != nil {
		t.Fatal(err)
	}
	return []rt.Policy{dep.NewPolicy(confBatch), rod, dyn}
}

// runner executes one fresh run of the calibrated workload on one substrate
// under pol, with an optional scripted fault plan.
type runner func(pol rt.Policy, fp *chaos.FaultPlan) (*rt.Report, error)

// simRunner is the simulator replaying the scenario's own arrival
// processes.
func simRunner(q *query.Query, cl *cluster.Cluster) runner {
	return func(pol rt.Policy, fp *chaos.FaultPlan) (*rt.Report, error) {
		sc := &sim.Scenario{
			Query:     q,
			Rates:     map[string]gen.Profile{},
			Sels:      make([]gen.Profile, len(q.Ops)),
			Cluster:   cl,
			BatchSize: confBatch,
			Seed:      17,
		}
		for _, s := range q.Streams {
			sc.Rates[s] = gen.ConstProfile(q.Rates[s])
		}
		for i := range sc.Sels {
			sc.Sels[i] = gen.ConstProfile(q.Ops[i].Sel)
		}
		ss, err := sim.OpenSession(sc, pol, rt.SessionOptions{Horizon: confHorizon, Faults: fp})
		if err != nil {
			return nil, err
		}
		return rt.Replay(context.Background(), ss, sc.Arrivals(confHorizon))
	}
}

// conformanceFeed builds the calibrated tuple feed the live substrates
// replay: same seeds on every call.
func conformanceFeed(q *query.Query) rt.Feed {
	domain := keyDomain(confRate2 * q.WindowSeconds)
	srcs := make([]*gen.Source, len(q.Streams))
	for i, s := range q.Streams {
		// A nil Target draws keys uniformly over the Cold domain: match
		// probability exactly 1/Cold per pair.
		srcs[i] = gen.NewSource(s,
			gen.ConstProfile(q.Rates[s]),
			gen.KeyDist{Cold: domain},
			gen.Uniform{A: 0, B: 100}, 500+int64(i)*13)
	}
	return rt.NewSourceFeed(srcs, confBatch, confHorizon)
}

// liveConfig is the engine configuration both live substrates run the
// conformance workload under.
func liveConfig() engine.Config {
	ecfg := engine.DefaultConfig()
	ecfg.MaxFanout = 0 // counts must not be clipped
	return ecfg
}

// liveOptions is the session configuration of the conformance workload.
func liveOptions(fp *chaos.FaultPlan) rt.SessionOptions {
	return rt.SessionOptions{
		Faults:  fp,
		Horizon: confHorizon, // fault accounting clips where the sim's does
	}
}

// engineRunner replays the feed through a fresh in-process engine session.
func engineRunner(q *query.Query, cl *cluster.Cluster) runner {
	return func(pol rt.Policy, fp *chaos.FaultPlan) (*rt.Report, error) {
		s, err := engine.OpenSession(q, cl.N(), pol, liveConfig(), liveOptions(fp))
		if err != nil {
			return nil, err
		}
		return rt.Replay(context.Background(), s, conformanceFeed(q))
	}
}

// netRunner mirrors engineRunner on the multi-process network substrate:
// same feed seeds, same calibration, but every node is a real worker
// process (a re-exec of this test binary — see TestMain) behind the netrt
// wire protocol.
func netRunner(q *query.Query, cl *cluster.Cluster) runner {
	return func(pol rt.Policy, fp *chaos.FaultPlan) (*rt.Report, error) {
		s, err := netrt.OpenSession(q, cl.N(), pol, liveConfig(), liveOptions(fp), nil)
		if err != nil {
			return nil, err
		}
		return rt.Replay(context.Background(), s, conformanceFeed(q))
	}
}

// TestConformanceSimVsEngine is the cross-substrate acceptance check: for
// each policy, the produced/ingested ratio of the two substrates must agree
// within 15% relative tolerance (window warm-up, Poisson noise, and batch
// jitter account for the slack), and both must be near the analytic Πδ.
func TestConformanceSimVsEngine(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6) // ample capacity: no queueing loss
	want := confDelta1 * confDelta2

	runSim, runEng, runNet := simRunner(q, cl), engineRunner(q, cl), netRunner(q, cl)
	// Policies can be stateful (DYN): give each substrate a fresh set so
	// one run's cooldown clock and final placement cannot leak into the
	// other.
	simPols := conformancePolicies(t, q, cl)
	engPols := conformancePolicies(t, q, cl)
	netPols := conformancePolicies(t, q, cl)
	for i, pol := range simPols {
		simRep, err := runSim(pol, nil)
		if err != nil {
			t.Fatalf("%s/sim: %v", pol.Name(), err)
		}
		engRep, err := runEng(engPols[i], nil)
		if err != nil {
			t.Fatalf("%s/engine: %v", pol.Name(), err)
		}
		netRep, err := runNet(netPols[i], nil)
		if err != nil {
			t.Fatalf("%s/net: %v", pol.Name(), err)
		}
		if simRep.Produced == 0 || engRep.Produced == 0 || netRep.Produced == 0 {
			t.Fatalf("%s: empty run (sim %v, engine %v, net %v)",
				pol.Name(), simRep.Produced, engRep.Produced, netRep.Produced)
		}
		rs, re, rn := simRep.OutputRatio(), engRep.OutputRatio(), netRep.OutputRatio()
		t.Logf("%s: sim ratio %.4f (produced %.0f), engine ratio %.4f (produced %.0f), net ratio %.4f (produced %.0f), Πδ %.4f",
			pol.Name(), rs, simRep.Produced, re, engRep.Produced, rn, netRep.Produced, want)
		if math.Abs(rs-want) > 0.05*want {
			t.Errorf("%s: sim ratio %.4f differs from Πδ %.4f", pol.Name(), rs, want)
		}
		if math.Abs(re-rs) > 0.15*rs {
			t.Errorf("%s: engine ratio %.4f vs sim ratio %.4f (>15%%)", pol.Name(), re, rs)
		}
		if math.Abs(rn-rs) > 0.15*rs {
			t.Errorf("%s: net ratio %.4f vs sim ratio %.4f (>15%%)", pol.Name(), rn, rs)
		}
		// Same feed seeds, same kernels behind a wire: the two live
		// substrates should track each other tighter than either tracks
		// the analytic simulator.
		if math.Abs(rn-re) > 0.15*re {
			t.Errorf("%s: net ratio %.4f vs engine ratio %.4f (>15%%)", pol.Name(), rn, re)
		}
	}
}

// TestConformanceStaticPolicyBothSubstrates runs the same StaticPolicy on
// every substrate — the minimal policy implementation must be sufficient
// for each of them.
func TestConformanceStaticPolicyBothSubstrates(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	pol := &rt.StaticPolicy{
		PolicyName: "FIXED",
		Plan:       query.Plan{1, 0},
		Assign:     []int{0, 1},
	}
	for _, sub := range []struct {
		name string
		run  runner
	}{
		{"sim", simRunner(q, cl)},
		{"engine", engineRunner(q, cl)},
		{"net", netRunner(q, cl)},
	} {
		rep, err := sub.run(pol, nil)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		if rep.Policy != "FIXED" || rep.Substrate != sub.name {
			t.Fatalf("report header %q/%q", rep.Policy, rep.Substrate)
		}
		if rep.Produced == 0 || rep.Ingested == 0 {
			t.Fatalf("%s: empty run", sub.name)
		}
		if rep.PlanCount() != 1 {
			t.Fatalf("%s: static policy used %d plans", sub.name, rep.PlanCount())
		}
	}
}

// selRecorder is a static policy that keeps the last snapshot the router
// chose a plan on.
type selRecorder struct {
	rt.StaticPolicy
	last stats.Snapshot
}

func (p *selRecorder) PlanFor(_ float64, snap stats.Snapshot) query.Plan {
	p.last = snap
	return p.Plan
}

// TestLiveSubstratesObserveTheSameStatistics: the router keeps the only
// selectivity and rate counters on both live substrates, so the same feed
// gives the monitor the same input on engine and net — bit for bit, also across a
// migration, which moves the join's window to another worker process, and
// across a crash, which respawns one. One batch is in flight at a time and
// each node runs one worker, so both substrates probe identical windows;
// the fault waits for the pipeline to drain.
func TestLiveSubstratesObserveTheSameStatistics(t *testing.T) {
	q := conformanceQuery()
	ctx := context.Background()
	run := func(open func(rt.Policy, engine.Config, rt.SessionOptions) (rt.Session, error), fault func(rt.Session) error) stats.Snapshot {
		t.Helper()
		pol := &selRecorder{StaticPolicy: rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{0, 1}, Assign: []int{0, 1}}}
		cfg, opts := liveConfig(), liveOptions(nil)
		opts.MaxPending, cfg.Workers = 1, 1
		ses, err := open(pol, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		feed := conformanceFeed(q)
		for i, b := 1, feed.Next(); b != nil; i, b = i+1, feed.Next() {
			if err := ses.Ingest(ctx, b); err != nil {
				t.Fatal(err)
			}
			if i != 60 || fault == nil {
				continue
			}
			for deadline := time.Now().Add(10 * time.Second); ses.Stats().Pending > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("batch 60 never drained")
				}
			}
			if err := fault(ses); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ses.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return pol.last
	}
	openEngine := func(pol rt.Policy, cfg engine.Config, opts rt.SessionOptions) (rt.Session, error) {
		return engine.OpenSession(q, 2, pol, cfg, opts)
	}
	openNet := func(pol rt.Policy, cfg engine.Config, opts rt.SessionOptions) (rt.Session, error) {
		return netrt.OpenSession(q, 2, pol, cfg, opts, nil)
	}
	for _, arm := range []struct {
		name  string
		fault func(rt.Session) error
	}{
		{"fault-free", nil},
		{"migrate", func(s rt.Session) error { return s.Migrate(1, 0) }},
		{"crash", func(s rt.Session) error {
			if err := s.Crash(1); err != nil {
				return err
			}
			return s.Recover(1)
		}},
	} {
		eng, net := run(openEngine, arm.fault), run(openNet, arm.fault)
		t.Logf("%s: engine %+v, net %+v", arm.name, eng, net)
		if !slices.Equal(eng.Sels, net.Sels) {
			t.Errorf("%s: the monitor saw selectivities %v on engine, %v on net", arm.name, eng.Sels, net.Sels)
		}
		if !maps.Equal(eng.Rates, net.Rates) {
			t.Errorf("%s: the monitor saw rates %v on engine, %v on net", arm.name, eng.Rates, net.Rates)
		}
	}
}
