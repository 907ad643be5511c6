package experiments

import (
	"fmt"

	"rld/internal/baseline"
	"rld/internal/cluster"
	"rld/internal/core"
	"rld/internal/cost"
	"rld/internal/gen"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/sim"
)

// rtOpts parameterizes one §6.5 runtime comparison run.
type rtOpts struct {
	// nodes is the cluster size.
	nodes int
	// perNodeCapacity in cost-units/sec; 0 derives it from headroom.
	perNodeCapacity float64
	// headroom sizes total capacity as headroom × the optimal plan's
	// center-point cost (used when perNodeCapacity is 0).
	headroom float64
	// rateFor builds the true rate profile per stream from its estimate.
	rateFor func(streamName string, base float64) gen.Profile
	// selPeriod is the selectivity square-wave period in seconds
	// (fluctuations stay inside the declared parameter space).
	selPeriod float64
	// horizon, batch, seed are run parameters.
	horizon float64
	batch   int
	seed    int64
	// ops sizes the query (default 5 = Q1; Fig 16a uses 10 so that node
	// counts beyond 5 matter).
	ops int
	// noRateDims drops the rate dimensions from the declared space:
	// rate fluctuations are then *unknown* to every optimizer — the
	// Figure 15b regime where the final 200% step exceeds what ROD's
	// single placement supports.
	noRateDims bool
}

// defaultRT returns the §6.5 defaults: Q1, 4 nodes, 30 minutes, ruster 50,
// selectivity regime flips every 120 s. The per-stream base rate is raised
// to 10 t/s (vs Table 2's 2 t/s) so a 30-minute run carries enough batches
// for stable latency statistics; all policies see identical workloads.
func defaultRT() rtOpts {
	return rtOpts{
		nodes:     4,
		headroom:  2.3,
		rateFor:   func(_ string, base float64) gen.Profile { return gen.ConstProfile(base) },
		selPeriod: 120,
		horizon:   1800,
		batch:     50,
		seed:      42,
	}
}

// rtBench holds everything needed to run the three policies on one
// identical scenario.
type rtBench struct {
	sc  *sim.Scenario
	dep *core.Deployment
	rld *core.Policy
	rod *baseline.ROD
	dyn *baseline.DYN
}

// buildRT constructs the scenario + policies. The parameter space declares
// selectivity uncertainty (U=3) on two operators of Q1; the true
// selectivities oscillate across that space, which is exactly the "known
// fluctuation" regime RLD targets.
func buildRT(o rtOpts) (*rtBench, error) {
	nOps := o.ops
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
	if !o.noRateDims {
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
	evProbe := cost.NewEvaluator(q, space)
	centerPlan, c0 := optimizer.NewRank(evProbe).Best(space.At(space.Center()))
	maxOp := 0.0
	for _, l := range evProbe.OpLoads(centerPlan, space.At(space.FullRegion().Hi)) {
		if l > maxOp {
			maxOp = l
		}
	}
	var cl *cluster.Cluster
	if o.perNodeCapacity > 0 {
		cl = cluster.NewHomogeneous(o.nodes, o.perNodeCapacity)
	} else {
		per := c0 * o.headroom / float64(o.nodes)
		// The heaviest operator (the pipeline's first stage) needs real
		// slack on its node — it is every policy's structural
		// bottleneck; 1.6× keeps it at ~60% utilization at base rates.
		if per < maxOp*1.6 {
			per = maxOp * 1.6
		}
		cl = cluster.NewHomogeneous(o.nodes, per)
	}

	dep, err := core.Optimize(q, dims, cl, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: RLD optimize: %w", err)
	}
	rod, err := baseline.NewROD(dep.Ev, cl)
	if err != nil {
		return nil, fmt.Errorf("experiments: ROD: %w", err)
	}
	dynCfg := baseline.DefaultDYNConfig()
	// Activate rebalancing once the hot node holds ≈0.5 s of backlog.
	dynCfg.ActivationFloor = 0.5 * cl.Nodes[0].Capacity
	dyn, err := baseline.NewDYN(dep.Ev, cl, dynCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: DYN: %w", err)
	}

	sc := &sim.Scenario{
		Query:       q,
		Rates:       map[string]gen.Profile{},
		Sels:        make([]gen.Profile, len(q.Ops)),
		Cluster:     cl,
		Horizon:     o.horizon,
		BatchSize:   o.batch,
		SampleEvery: 5,
		TickEvery:   5,
		// Admission control: bound each node's backlog to ~2 s of work
		// (the |Tdq| dequeue bound of Table 2 plays this role in
		// D-CAPE); overload then shows as shed tuples and bounded —
		// but still strongly separated — latencies, as in Fig 15a.
		MaxQueue: 2 * cl.Nodes[0].Capacity,
		// Count-bounded windows per Table 2's |Tdq|: work scales
		// linearly with rates, matching the paper's operating range
		// where 400% rates stress but do not instantly drown the
		// cluster.
		CountWindows: true,
		Seed:         o.seed,
	}
	for _, s := range q.Streams {
		sc.Rates[s] = o.rateFor(s, q.Rates[s])
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
			Period:     o.selPeriod,
			PhaseShift: float64(di) * o.selPeriod / 2,
		}
	}
	return &rtBench{sc: sc, dep: dep, rld: dep.NewPolicy(o.batch), rod: rod, dyn: dyn}, nil
}

// runAll executes the three policies on identical scenario copies.
func (b *rtBench) runAll() (map[string]*runtime.Report, error) {
	out := map[string]*runtime.Report{}
	for _, pol := range []sim.Policy{b.rod, b.dyn, b.rld} {
		scCopy := *b.sc // policies don't mutate the scenario
		res, err := sim.Run(&scCopy, pol)
		if err != nil {
			return nil, err
		}
		out[pol.Name()] = res
	}
	return out, nil
}

// Fig15a — average tuple processing time vs input-rate fluctuation ratio
// {50,100,200,300,400}% for ROD, DYN, RLD. Expected shape: parity at 50%,
// RLD best at 100–300% (it keeps executing the ε-optimal ordering), DYN
// closing in or overtaking at 400% where a single static placement can no
// longer balance the overload.
func Fig15a(quick bool) []*Table {
	ratios := []float64{0.5, 1, 2, 3, 4}
	o := defaultRT()
	if quick {
		ratios = []float64{0.5, 2}
		o.horizon = 400
	}
	t := &Table{
		ID:     "Fig15a",
		Title:  "average tuple processing time vs input rate fluctuation ratio",
		XLabel: "ratio",
		Series: []string{"ROD", "DYN", "RLD"},
		Unit:   "ms",
	}
	for _, r := range ratios {
		ratio := r
		o.rateFor = func(_ string, base float64) gen.Profile {
			return gen.Scaled{Inner: gen.ConstProfile(base), Factor: ratio}
		}
		b, err := buildRT(o)
		if err != nil {
			panic(err)
		}
		res, err := b.runAll()
		if err != nil {
			panic(err)
		}
		t.Add(fmt.Sprintf("%.0f%%", r*100), map[string]float64{
			"ROD": res["ROD"].MeanLatencyMS,
			"DYN": res["DYN"].MeanLatencyMS,
			"RLD": res["RLD"].MeanLatencyMS,
		})
	}
	return []*Table{t}
}

// Fig15b — total tuples produced over a 60-minute run with the input rates
// stepped 50%→100%→200% at minutes 20 and 40. Reported at 10-minute marks.
// Expected shape: ROD flatlines after the 200% step; RLD leads throughout;
// DYN keeps up but trails RLD due to migration downtime.
func Fig15b(quick bool) []*Table {
	o := defaultRT()
	o.horizon = 3600
	marks := []float64{600, 1200, 1800, 2400, 3000, 3600}
	if quick {
		o.horizon = 600
		marks = []float64{300, 600}
	}
	// The 200% step is the stress phase: rate fluctuations are NOT
	// declared in the space here, so capacity is sized for ±50%
	// selectivity swings only and the final step overruns every policy's
	// provisioning — ROD worst, RLD least-worst (cheapest orderings).
	o.noRateDims = true
	o.headroom = 1.6
	step := gen.StepProfile{
		Times: []float64{o.horizon / 3, 2 * o.horizon / 3},
		Vals:  []float64{0.5, 1, 2},
	}
	o.rateFor = func(_ string, base float64) gen.Profile {
		return gen.Scaled{Inner: step, Factor: base}
	}
	b, err := buildRT(o)
	if err != nil {
		panic(err)
	}
	res, err := b.runAll()
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "Fig15b",
		Title:  "cumulative tuples produced over time (rates 50%→100%→200%)",
		XLabel: "minute",
		Series: []string{"ROD", "DYN", "RLD"},
		Unit:   "tuples",
	}
	for _, m := range marks {
		t.Add(fmt.Sprintf("%.0f", m/60), map[string]float64{
			"ROD": res["ROD"].ProducedOverTime.ValueAt(m),
			"DYN": res["DYN"].ProducedOverTime.ValueAt(m),
			"RLD": res["RLD"].ProducedOverTime.ValueAt(m),
		})
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
	o := defaultRT()
	if quick {
		nodesList = []int{1, 4}
		o.horizon = 400
	}
	// Fixed per-node capacity sized so even ONE node can host the whole
	// query (tightly): adding machines then relaxes the colocation.
	probe := defaultRT()
	bProbe, err := buildRT(probe)
	if err != nil {
		panic(err)
	}
	total := 0.0
	for _, l := range bProbe.dep.Logical.MaxLoads(bProbe.dep.Ev) {
		total += l
	}
	perNode := total * 1.08

	o.rateFor = func(_ string, base float64) gen.Profile {
		return gen.Scaled{Inner: gen.ConstProfile(base), Factor: 1.5}
	}
	t := &Table{
		ID:     "Fig16a",
		Title:  "average tuple processing time vs number of nodes (150% rates)",
		XLabel: "nodes",
		Series: []string{"ROD", "DYN", "RLD"},
		Unit:   "ms",
	}
	for _, n := range nodesList {
		o.nodes = n
		o.perNodeCapacity = perNode
		b, err := buildRT(o)
		if err != nil {
			panic(err)
		}
		res, err := b.runAll()
		if err != nil {
			panic(err)
		}
		t.Add(fmt.Sprintf("%d", n), map[string]float64{
			"ROD": res["ROD"].MeanLatencyMS,
			"DYN": res["DYN"].MeanLatencyMS,
			"RLD": res["RLD"].MeanLatencyMS,
		})
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
	o := defaultRT()
	o.headroom = 1.6
	if quick {
		periods = []float64{5, 20}
		o.horizon = 400
	}
	t := &Table{
		ID:     "Fig16b",
		Title:  "average tuple processing time vs input rate fluctuation period",
		XLabel: "period (s)",
		Series: []string{"ROD", "DYN", "RLD"},
		Unit:   "ms",
	}
	for _, p := range periods {
		period := p
		o.rateFor = func(streamName string, base float64) gen.Profile {
			return gen.SquareProfile{Lo: base * 0.5, Hi: base * 1.5, Period: period}
		}
		b, err := buildRT(o)
		if err != nil {
			panic(err)
		}
		res, err := b.runAll()
		if err != nil {
			panic(err)
		}
		t.Add(fmt.Sprintf("%.0f", p), map[string]float64{
			"ROD": res["ROD"].MeanLatencyMS,
			"DYN": res["DYN"].MeanLatencyMS,
			"RLD": res["RLD"].MeanLatencyMS,
		})
	}
	return []*Table{t}
}

// Overhead — the §6.5 runtime-overhead comparison: RLD's classification
// cost (≈2% of execution) vs DYN's migration count/downtime and decision
// cost; ROD has none by construction.
func Overhead(quick bool) []*Table {
	o := defaultRT()
	if quick {
		o.horizon = 400
	}
	o.rateFor = func(_ string, base float64) gen.Profile {
		return gen.Scaled{Inner: gen.ConstProfile(base), Factor: 2}
	}
	b, err := buildRT(o)
	if err != nil {
		panic(err)
	}
	res, err := b.runAll()
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "Overhead",
		Title:  "runtime overhead beyond query processing (200% rates)",
		XLabel: "metric",
		Series: []string{"ROD", "DYN", "RLD"},
	}
	t.Add("overhead ratio", map[string]float64{
		"ROD": res["ROD"].OverheadRatio(),
		"DYN": res["DYN"].OverheadRatio(),
		"RLD": res["RLD"].OverheadRatio(),
	})
	t.Add("migrations", map[string]float64{
		"ROD": float64(res["ROD"].Migrations),
		"DYN": float64(res["DYN"].Migrations),
		"RLD": float64(res["RLD"].Migrations),
	})
	t.Add("migration downtime s", map[string]float64{
		"ROD": res["ROD"].MigrationDowntime,
		"DYN": res["DYN"].MigrationDowntime,
		"RLD": res["RLD"].MigrationDowntime,
	})
	t.Add("plan switches", map[string]float64{
		"ROD": float64(res["ROD"].PlanSwitches),
		"DYN": float64(res["DYN"].PlanSwitches),
		"RLD": float64(res["RLD"].PlanSwitches),
	})
	return []*Table{t}
}

// AblationBatch — ruster size sensitivity for RLD (DESIGN.md §6):
// classification overhead amortizes with batch size while plan-switch
// agility degrades.
func AblationBatch(quick bool) []*Table {
	sizes := []int{10, 50, 200, 1000}
	o := defaultRT()
	if quick {
		sizes = []int{10, 200}
		o.horizon = 400
	}
	t := &Table{
		ID:     "AblationBatch",
		Title:  "RLD ruster-size sensitivity",
		XLabel: "batch",
		Series: []string{"latency ms", "overhead ratio", "plan switches"},
	}
	for _, bs := range sizes {
		o.batch = bs
		b, err := buildRT(o)
		if err != nil {
			panic(err)
		}
		scCopy := *b.sc
		res, err := sim.Run(&scCopy, b.rld)
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
