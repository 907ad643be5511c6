package experiments

import (
	"context"
	"errors"
	"fmt"

	"rld/internal/baseline"
	"rld/internal/chaos"
	"rld/internal/cluster"
	"rld/internal/core"
	"rld/internal/cost"
	"rld/internal/engine"
	"rld/internal/gen"
	"rld/internal/netrt"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/sim"
)

// StudyOptions parameterizes one §6.5 runtime comparison: the query, the
// cluster it runs on, the fluctuating workload and the run length.
type StudyOptions struct {
	// Nodes is the cluster size.
	Nodes int
	// PerNodeCapacity in cost-units/sec; 0 derives it from Headroom.
	PerNodeCapacity float64
	// Headroom sizes total capacity as Headroom × the optimal plan's
	// center-point cost (used when PerNodeCapacity is 0).
	Headroom float64
	// RateFor builds the true rate profile per stream from its estimate.
	RateFor func(streamName string, base float64) gen.Profile
	// SelPeriod is the selectivity square-wave period in seconds
	// (fluctuations stay inside the declared parameter space).
	SelPeriod float64
	// Horizon, Batch, Seed are run parameters.
	Horizon float64
	Batch   int
	Seed    int64
	// Ops sizes the query (default 5 = Q1; Fig 16a uses 10 so that node
	// counts beyond 5 matter).
	Ops int
	// NoRateDims drops the rate dimensions from the declared space:
	// rate fluctuations are then *unknown* to every optimizer — the
	// Figure 15b regime where the final 200% step exceeds what ROD's
	// single placement supports.
	NoRateDims bool
}

// DefaultStudy returns the §6.5 defaults: Q1, 4 nodes, 30 minutes, ruster
// 50, selectivity regime flips every 120 s. The per-stream base rate is
// raised to 10 t/s (vs Table 2's 2 t/s) so a 30-minute run carries enough
// batches for stable latency statistics; all policies see identical
// workloads.
func DefaultStudy() StudyOptions {
	return StudyOptions{
		Nodes:     4,
		Headroom:  2.3,
		RateFor:   func(_ string, base float64) gen.Profile { return gen.ConstProfile(base) },
		SelPeriod: 120,
		Horizon:   1800,
		Batch:     50,
		Seed:      42,
	}
}

// Study is one §6.5 workload: the scenario every policy replays and the
// RLD deployment the policies are built from. The runtime figures sweep
// it; cmd/rldrun runs one point of it, set from its flags.
type Study struct {
	Scenario   *sim.Scenario
	Deployment *core.Deployment
	horizon    float64 // the simulated run length, in virtual seconds
}

// ErrBadStudy reports study options no cluster or run can be built from.
var ErrBadStudy = errors.New("experiments: invalid study options")

// NewStudy builds the scenario and the deployment. The parameter space
// declares selectivity uncertainty (U=5) on two operators of the query;
// the true selectivities oscillate across that space, which is exactly
// the "known fluctuation" regime RLD targets. Options without a node, a
// batch size, a positive horizon or a way to size capacity are rejected
// with ErrBadStudy.
func NewStudy(o StudyOptions) (*Study, error) {
	switch {
	case o.Nodes < 1:
		return nil, fmt.Errorf("%w: Nodes = %d, need at least 1", ErrBadStudy, o.Nodes)
	case o.Batch < 1:
		return nil, fmt.Errorf("%w: Batch = %d, need at least 1", ErrBadStudy, o.Batch)
	case o.Horizon <= 0:
		return nil, fmt.Errorf("%w: Horizon = %v, need a positive run length", ErrBadStudy, o.Horizon)
	case o.PerNodeCapacity <= 0 && o.Headroom <= 0:
		return nil, fmt.Errorf("%w: Headroom = %v with no PerNodeCapacity, need a positive one", ErrBadStudy, o.Headroom)
	}
	nOps := o.Ops
	if nOps < 2 {
		nOps = 5
	}
	q := query.NewNWayJoin("Q1", nOps, 10)
	// U=5 (±50% swings) on two operator selectivities AND every stream's
	// input rate (Example 2 declares both kinds). The space then covers
	// rate fluctuations up to 150% — RLD's Def-3 support claims hold
	// there — while 200–400% rates exceed the declared uncertainty,
	// which is exactly the regime where the paper reports RLD degrading
	// (§6.5: "RLD targets fluctuations known a priori").
	dims := []paramspace.Dim{
		paramspace.SelDim(0, q.Ops[0].Sel, 5),
		paramspace.SelDim(nOps-2, q.Ops[nOps-2].Sel, 5),
	}
	if !o.NoRateDims {
		for _, st := range q.Streams {
			dims = append(dims, paramspace.RateDim(st, q.Rates[st], 5))
		}
	}
	cfg := core.DefaultConfig()
	// Coarser grid: the runtime space is (2+streams)-dimensional, and
	// region bookkeeping is exponential in d.
	cfg.Steps = 4
	space := paramspace.New(dims, cfg.Steps)

	// Size the cluster against the center-point optimal plan cost,
	// floored so the heaviest single operator always fits one node.
	per := o.PerNodeCapacity
	if per <= 0 {
		evProbe := cost.NewEvaluator(q, space)
		centerPlan, c0 := optimizer.NewRank(evProbe).Best(space.At(space.Center()))
		maxOp := 0.0
		for _, l := range evProbe.OpLoads(centerPlan, space.At(space.FullRegion().Hi)) {
			maxOp = max(maxOp, l)
		}
		// The heaviest operator (the pipeline's first stage) needs real
		// slack on its node — it is every policy's structural
		// bottleneck; 1.6× keeps it at ~60% utilization at base rates.
		per = max(c0*o.Headroom/float64(o.Nodes), maxOp*1.6)
	}
	cl := cluster.NewHomogeneous(o.Nodes, per)

	dep, err := core.Optimize(q, dims, cl, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: RLD optimize: %w", err)
	}

	sc := &sim.Scenario{
		Query:     q,
		Rates:     map[string]gen.Profile{},
		Sels:      make([]gen.Profile, len(q.Ops)),
		Cluster:   cl,
		BatchSize: o.Batch,
		// Admission control: bound each node's backlog to ~2 s of work
		// (the |Tdq| dequeue bound of Table 2 plays this role in
		// D-CAPE); overload then shows as shed tuples and bounded —
		// but still strongly separated — latencies, as in Fig 15a.
		MaxQueue: 2 * per,
		// Count-bounded windows per Table 2's |Tdq|: work scales
		// linearly with rates, matching the paper's operating range
		// where 400% rates stress but do not instantly drown the
		// cluster.
		CountWindows: true,
		Seed:         o.Seed,
	}
	for _, s := range q.Streams {
		sc.Rates[s] = o.RateFor(s, q.Rates[s])
	}
	// True selectivities: square waves spanning each declared dimension;
	// undeclared operators hold their estimates.
	for i := range sc.Sels {
		sc.Sels[i] = gen.ConstProfile(q.Ops[i].Sel)
	}
	for di, d := range dims {
		if d.Kind != paramspace.Selectivity {
			continue
		}
		sc.Sels[d.Op] = gen.SquareProfile{
			Lo:         d.Lo + 0.02*(d.Hi-d.Lo),
			Hi:         d.Hi - 0.02*(d.Hi-d.Lo),
			Period:     o.SelPeriod,
			PhaseShift: float64(di) * o.SelPeriod / 2,
		}
	}
	return &Study{Scenario: sc, Deployment: dep, horizon: o.Horizon}, nil
}

// Substrate is what a Study runs its policies on — the simulator (Sim),
// the in-process engine (Engine) or worker processes (Net) — and what each
// run replays: seconds of feed through a freshly opened session.
type Substrate struct {
	// Name is the substrate its reports carry: "sim", "engine" or "net".
	Name    string
	seconds float64
	open    func(runtime.Policy, runtime.SessionOptions) (runtime.Session, error)
	feed    func(seconds float64) runtime.Feed
}

// Sim runs each policy in the simulator on the scenario's own arrival
// processes over the study's horizon.
func (s *Study) Sim() Substrate {
	return Substrate{Name: "sim", seconds: s.horizon, feed: s.Scenario.Arrivals,
		open: func(pol runtime.Policy, opts runtime.SessionOptions) (runtime.Session, error) {
			return sim.OpenSession(s.Scenario, pol, opts)
		}}
}

// Engine runs each policy as an in-process engine session replaying
// seconds of the study's Feed.
func (s *Study) Engine(seconds float64, cfg engine.Config) Substrate {
	return Substrate{Name: "engine", seconds: seconds, feed: s.Feed,
		open: func(pol runtime.Policy, opts runtime.SessionOptions) (runtime.Session, error) {
			return engine.OpenSession(s.Scenario.Query, s.Scenario.Cluster.N(), pol, cfg, opts)
		}}
}

// Net runs each policy as a session over one worker process per node,
// replaying seconds of the study's Feed. workerCmd launches a worker; nil
// re-executes the current binary, which must call netrt.MaybeWorker first.
func (s *Study) Net(seconds float64, cfg engine.Config, workerCmd []string) Substrate {
	return Substrate{Name: "net", seconds: seconds, feed: s.Feed,
		open: func(pol runtime.Policy, opts runtime.SessionOptions) (runtime.Session, error) {
			return netrt.OpenSession(s.Scenario.Query, s.Scenario.Cluster.N(), pol, cfg, opts, workerCmd)
		}}
}

// run opens a session of pol on sub — under faults when non-nil, and with
// the in-flight bound rld.Open gives, which the simulator ignores — and
// replays sub's feed through it.
func (s *Study) run(sub Substrate, pol runtime.Policy, faults *chaos.FaultPlan) (*runtime.Report, error) {
	opts := runtime.SessionOptions{Faults: faults, Horizon: sub.seconds, MaxPending: engine.DefaultMaxPending(s.Scenario.Cluster.N())}
	sess, err := sub.open(pol, opts)
	if err != nil {
		return nil, err
	}
	return runtime.Replay(context.Background(), sess, sub.feed(sub.seconds))
}

// Feed returns seconds of seeded tuples for the study's streams, the input
// the live substrates replay: each stream arrives at its scenario rate at
// t = 0, draws keys toward a 0.2 % join match rate over 4096 cold keys,
// and carries payloads uniform on [0, 100).
func (s *Study) Feed(seconds float64) runtime.Feed {
	sc := s.Scenario
	srcs := make([]*gen.Source, len(sc.Query.Streams))
	for i, st := range sc.Query.Streams {
		srcs[i] = gen.NewSource(st,
			gen.ConstProfile(sc.Rates[st].At(0)),
			gen.KeyDist{Target: gen.ConstProfile(0.002), Cold: 4096},
			gen.Uniform{A: 0, B: 100}, sc.Seed+int64(i)*13)
	}
	return runtime.NewSourceFeed(srcs, sc.BatchSize, seconds)
}

// policies builds ROD, DYN and RLD for sub, in table order. DYN is
// stateful, so every run gets fresh instances.
func (s *Study) policies(sub Substrate) ([]runtime.Policy, error) {
	dep, cl := s.Deployment, s.Scenario.Cluster
	rod, err := baseline.NewROD(dep.Ev, cl)
	if err != nil {
		return nil, fmt.Errorf("experiments: ROD: %w", err)
	}
	dynCfg := baseline.DefaultDYNConfig()
	if sub.Name == "sim" {
		// Activate rebalancing once the hot node holds ≈0.5 s of backlog.
		dynCfg.ActivationFloor = 0.5 * cl.Nodes[0].Capacity
	} else {
		// A live node reports its backlog in queued messages, not in
		// cost-units.
		dynCfg.ActivationFloor, dynCfg.CooldownSeconds = 2, 10
	}
	dyn, err := baseline.NewDYN(dep.Ev, cl, dynCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: DYN: %w", err)
	}
	return []runtime.Policy{rod, dyn, dep.NewPolicy(s.Scenario.BatchSize)}, nil
}

// Run builds fresh ROD, DYN and RLD and runs each on sub, under faults
// when it is non-nil, returning their reports in that order.
func (s *Study) Run(sub Substrate, faults *chaos.FaultPlan) ([]*runtime.Report, error) {
	pols, err := s.policies(sub)
	if err != nil {
		return nil, err
	}
	reports := make([]*runtime.Report, len(pols))
	for i, pol := range pols {
		if reports[i], err = s.run(sub, pol, faults); err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// policySeries is the column order of every §6.5 three-policy table.
var policySeries = []string{"ROD", "DYN", "RLD"}

// runStudy builds the study for o and runs it fault-free; the figures
// panic on an error, like every other experiment.
func runStudy(o StudyOptions) []*runtime.Report {
	s, err := NewStudy(o)
	if err != nil {
		panic(err)
	}
	reports, err := s.Run(s.Sim(), nil)
	if err != nil {
		panic(err)
	}
	return reports
}

// perPolicy reads one metric off each report, keyed by policy name: one
// row of a three-policy table.
func perPolicy(reports []*runtime.Report, metric func(*runtime.Report) float64) map[string]float64 {
	row := make(map[string]float64, len(reports))
	for _, r := range reports {
		row[r.Policy] = metric(r)
	}
	return row
}

func meanLatency(r *runtime.Report) float64 { return r.MeanLatencyMS }

// Fig15a — average tuple processing time vs input-rate fluctuation ratio
// {50,100,200,300,400}% for ROD, DYN, RLD. Expected shape: parity at 50%,
// RLD best at 100–300% (it keeps executing the ε-optimal ordering), DYN
// closing in or overtaking at 400% where a single static placement can no
// longer balance the overload.
func Fig15a(quick bool) []*Table {
	ratios := []float64{0.5, 1, 2, 3, 4}
	o := DefaultStudy()
	if quick {
		ratios = []float64{0.5, 2}
		o.Horizon = 400
	}
	t := &Table{
		ID:     "Fig15a",
		Title:  "average tuple processing time vs input rate fluctuation ratio",
		XLabel: "ratio",
		Series: policySeries,
		Unit:   "ms",
	}
	for _, r := range ratios {
		o.RateFor = func(_ string, base float64) gen.Profile {
			return gen.Scaled{Inner: gen.ConstProfile(base), Factor: r}
		}
		t.Add(fmt.Sprintf("%.0f%%", r*100), perPolicy(runStudy(o), meanLatency))
	}
	return []*Table{t}
}

// Fig15b — total tuples produced over a 60-minute run with the input rates
// stepped 50%→100%→200% at minutes 20 and 40. Reported at 10-minute marks.
// Expected shape: ROD flatlines after the 200% step; RLD leads throughout;
// DYN keeps up but trails RLD due to migration downtime.
func Fig15b(quick bool) []*Table {
	o := DefaultStudy()
	o.Horizon = 3600
	marks := []float64{600, 1200, 1800, 2400, 3000, 3600}
	if quick {
		o.Horizon = 600
		marks = []float64{300, 600}
	}
	// The 200% step is the stress phase: rate fluctuations are NOT
	// declared in the space here, so capacity is sized for ±50%
	// selectivity swings only and the final step overruns every policy's
	// provisioning — ROD worst, RLD least-worst (cheapest orderings).
	o.NoRateDims = true
	o.Headroom = 1.6
	step := gen.StepProfile{
		Times: []float64{o.Horizon / 3, 2 * o.Horizon / 3},
		Vals:  []float64{0.5, 1, 2},
	}
	o.RateFor = func(_ string, base float64) gen.Profile {
		return gen.Scaled{Inner: step, Factor: base}
	}
	res := runStudy(o)
	t := &Table{
		ID:     "Fig15b",
		Title:  "cumulative tuples produced over time (rates 50%→100%→200%)",
		XLabel: "minute",
		Series: policySeries,
		Unit:   "tuples",
	}
	for _, m := range marks {
		t.Add(fmt.Sprintf("%.0f", m/60), perPolicy(res, func(r *runtime.Report) float64 {
			return r.ProducedOverTime.ValueAt(m)
		}))
	}
	return []*Table{t}
}

// Fig16a — average tuple processing time vs number of nodes at 200% input
// rates (150%) with per-node capacity held constant. The paper sweeps {5,10,15}
// nodes on a multi-query deployment; a single 5-operator pipeline stops
// benefiting from extra machines once every operator has its own node, so
// we sweep {1,2,4} — the range where colocation binds (see EXPERIMENTS.md).
// Expected shape: large gaps on the overloaded small clusters, convergence
// as machines are added, RLD flattest throughout.
func Fig16a(quick bool) []*Table {
	nodesList := []int{1, 2, 4}
	o := DefaultStudy()
	if quick {
		nodesList = []int{1, 4}
		o.Horizon = 400
	}
	// Fixed per-node capacity sized so even ONE node can host the whole
	// query (tightly): adding machines then relaxes the colocation.
	probe, err := NewStudy(DefaultStudy())
	if err != nil {
		panic(err)
	}
	total := 0.0
	for _, l := range probe.Deployment.Logical.MaxLoads(probe.Deployment.Ev) {
		total += l
	}
	o.PerNodeCapacity = total * 1.08

	o.RateFor = func(_ string, base float64) gen.Profile {
		return gen.Scaled{Inner: gen.ConstProfile(base), Factor: 1.5}
	}
	t := &Table{
		ID:     "Fig16a",
		Title:  "average tuple processing time vs number of nodes (150% rates)",
		XLabel: "nodes",
		Series: policySeries,
		Unit:   "ms",
	}
	for _, n := range nodesList {
		o.Nodes = n
		t.Add(fmt.Sprintf("%d", n), perPolicy(runStudy(o), meanLatency))
	}
	return []*Table{t}
}

// Fig16b — average tuple processing time vs input-rate fluctuation period
// {5,10,20} s: rates alternate between 50% and 150% of base with equal
// high/low intervals (§6.5). Expected shape: RLD's latency rises only
// slightly with the period; ROD and DYN suffer on long fluctuations (DYN
// additionally pays migration downtime chasing the wave).
func Fig16b(quick bool) []*Table {
	periods := []float64{5, 10, 20}
	o := DefaultStudy()
	o.Headroom = 1.6
	if quick {
		periods = []float64{5, 20}
		o.Horizon = 400
	}
	t := &Table{
		ID:     "Fig16b",
		Title:  "average tuple processing time vs input rate fluctuation period",
		XLabel: "period (s)",
		Series: policySeries,
		Unit:   "ms",
	}
	for _, p := range periods {
		o.RateFor = func(_ string, base float64) gen.Profile {
			return gen.SquareProfile{Lo: base * 0.5, Hi: base * 1.5, Period: p}
		}
		t.Add(fmt.Sprintf("%.0f", p), perPolicy(runStudy(o), meanLatency))
	}
	return []*Table{t}
}

// Overhead — the §6.5 runtime-overhead comparison: RLD's classification
// cost (≈2% of execution) vs DYN's migration count/downtime and decision
// cost; ROD has none by construction.
func Overhead(quick bool) []*Table {
	o := DefaultStudy()
	if quick {
		o.Horizon = 400
	}
	o.RateFor = func(_ string, base float64) gen.Profile {
		return gen.Scaled{Inner: gen.ConstProfile(base), Factor: 2}
	}
	res := runStudy(o)
	t := &Table{
		ID:     "Overhead",
		Title:  "runtime overhead beyond query processing (200% rates)",
		XLabel: "metric",
		Series: policySeries,
	}
	t.Add("overhead ratio", perPolicy(res, (*runtime.Report).OverheadRatio))
	t.Add("migrations", perPolicy(res, func(r *runtime.Report) float64 { return float64(r.Migrations) }))
	t.Add("migration downtime s", perPolicy(res, func(r *runtime.Report) float64 { return r.MigrationDowntime }))
	t.Add("plan switches", perPolicy(res, func(r *runtime.Report) float64 { return float64(r.PlanSwitches) }))
	return []*Table{t}
}

// AblationBatch — ruster size sensitivity for RLD (DESIGN.md §6):
// classification overhead amortizes with batch size while plan-switch
// agility degrades.
func AblationBatch(quick bool) []*Table {
	sizes := []int{10, 50, 200, 1000}
	o := DefaultStudy()
	if quick {
		sizes = []int{10, 200}
		o.Horizon = 400
	}
	t := &Table{
		ID:     "AblationBatch",
		Title:  "RLD ruster-size sensitivity",
		XLabel: "batch",
		Series: []string{"latency ms", "overhead ratio", "plan switches"},
	}
	for _, bs := range sizes {
		o.Batch = bs
		s, err := NewStudy(o)
		if err != nil {
			panic(err)
		}
		res, err := s.run(s.Sim(), s.Deployment.NewPolicy(bs), nil)
		if err != nil {
			panic(err)
		}
		t.Add(fmt.Sprintf("%d", bs), map[string]float64{
			"latency ms":     res.MeanLatencyMS,
			"overhead ratio": res.OverheadRatio(),
			"plan switches":  float64(res.PlanSwitches),
		})
	}
	return []*Table{t}
}
