package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rld/internal/cluster"
	"rld/internal/gen"
	"rld/internal/paramspace"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/sim"
	"rld/internal/stats"
)

func fixtureDims(q *query.Query) []paramspace.Dim {
	return []paramspace.Dim{
		paramspace.SelDim(0, q.Ops[0].Sel, 3),
		paramspace.SelDim(3, q.Ops[3].Sel, 3),
	}
}

func deploy(t *testing.T, cfg Config) *Deployment {
	t.Helper()
	q := query.NewNWayJoin("Q1", 5, 2)
	cl := cluster.NewHomogeneous(3, 60)
	d, err := Optimize(q, fixtureDims(q), cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOptimizeEndToEnd(t *testing.T) {
	d := deploy(t, DefaultConfig())
	if d.Logical.NumPlans() == 0 {
		t.Fatal("no robust plans")
	}
	if d.Physical == nil || !d.Physical.Assign.Complete() {
		t.Fatal("no complete physical plan")
	}
	if len(d.Physical.Supported) == 0 {
		t.Fatal("physical plan supports nothing")
	}
	if len(d.SupportedPlans()) != len(d.Physical.Supported) {
		t.Fatal("SupportedPlans arity mismatch")
	}
	// Every supported plan obeys Def. 3 on the cluster.
	for _, lp := range d.SupportedPlans() {
		if !d.Physical.Assign.Supports(lp, d.Cluster) {
			t.Fatalf("claimed support violates capacity: %v", lp.Plan)
		}
	}
}

func TestOptimizeAllAlgorithmCombos(t *testing.T) {
	for _, la := range []LogicalAlgo{LogicalERP, LogicalWRP, LogicalES, LogicalRS} {
		for _, pa := range []PhysicalAlgo{PhysicalGreedy, PhysicalOptPrune, PhysicalExhaustive} {
			cfg := DefaultConfig()
			cfg.Logical = la
			cfg.Physical = pa
			cfg.Steps = 8
			d := deploy(t, cfg)
			if d.Physical == nil {
				t.Fatalf("%s/%s produced no plan", la, pa)
			}
		}
	}
}

func TestOptimizeRejectsBadInputs(t *testing.T) {
	q := query.NewNWayJoin("Q", 3, 2)
	cl := cluster.NewHomogeneous(2, 100)
	if _, err := Optimize(q, nil, cl, DefaultConfig()); err == nil {
		t.Fatal("no dims must error")
	}
	bad := query.NewNWayJoin("Q", 3, 2)
	bad.Ops[0].Cost = -1
	if _, err := Optimize(bad, fixtureDimsFor(bad), cl, DefaultConfig()); err == nil {
		t.Fatal("invalid query must error")
	}
	cfg := DefaultConfig()
	cfg.Logical = "nope"
	if _, err := Optimize(q, fixtureDimsFor(q), cl, cfg); err == nil {
		t.Fatal("unknown logical algo must error")
	}
	cfg = DefaultConfig()
	cfg.Physical = "nope"
	if _, err := Optimize(q, fixtureDimsFor(q), cl, cfg); err == nil {
		t.Fatal("unknown physical algo must error")
	}
	// Impossible capacity.
	tiny := cluster.NewHomogeneous(1, 1e-9)
	if _, err := Optimize(q, fixtureDimsFor(q), tiny, DefaultConfig()); err == nil {
		t.Fatal("infeasible cluster must error")
	} else if !strings.Contains(err.Error(), "feasible") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestOptimizeRejectsPlacementSupportingNothing: random 5-op queries over 3
// and 4 dimensions on three nodes of capacity 7.5, which leaves the
// physical phase a placement for some of them that supports none of the
// robust plans. Optimize must refuse those, and deploy only a placement
// that supports at least one plan.
func TestOptimizeRejectsPlacementSupportingNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cl := cluster.NewHomogeneous(3, 7.5)
	refused, deployed := 0, 0
	for trial := 0; trial < 24; trial++ {
		q := query.NewRandomQuery("R", 5, 2, rng)
		var dims []paramspace.Dim
		for j := 0; j < 3+trial%2; j++ {
			if j%2 == 0 {
				dims = append(dims, paramspace.SelDim(j, q.Ops[j].Sel, 3))
			} else {
				dims = append(dims, paramspace.RateDim(q.Streams[j], q.Rates[q.Streams[j]], 3))
			}
		}
		cfg := DefaultConfig()
		cfg.Steps = 6
		d, err := Optimize(q, dims, cl, cfg)
		switch {
		case err == nil && len(d.Physical.Supported) == 0:
			t.Fatalf("trial %d: deployed a placement that supports none of %d plans", trial, len(d.Plans))
		case err == nil:
			deployed++
		case strings.Contains(err.Error(), "supports none"):
			refused++
		}
	}
	if refused == 0 || deployed == 0 {
		t.Fatalf("%d placements refused for supporting nothing and %d deployed; the check needs both", refused, deployed)
	}
}

func fixtureDimsFor(q *query.Query) []paramspace.Dim {
	return []paramspace.Dim{
		paramspace.SelDim(0, 0.4, 2),
		paramspace.SelDim(1, 0.5, 2),
	}
}

func TestClassifyTracksStatistics(t *testing.T) {
	// A tight ε forces a multi-plan certified partition, so the two
	// corners of the space fall in different plans' regions.
	cfg := DefaultConfig()
	cfg.Robust.Epsilon = 0.05
	d := deploy(t, cfg)
	lo := stats.Snapshot{Sels: sels(d, 0), Rates: map[string]float64{}}
	hi := stats.Snapshot{Sels: sels(d, d.Space.Steps-1), Rates: map[string]float64{}}
	planLo, idxLo := d.Classify(lo)
	planHi, idxHi := d.Classify(hi)
	if planLo == nil || planHi == nil {
		t.Fatal("classification failed")
	}
	if len(d.Physical.Supported) > 1 && idxLo == idxHi {
		// With ε=5% the corner orderings differ; require the classifier
		// to react.
		t.Fatalf("classifier ignored statistics: %v vs %v", planLo, planHi)
	}
	// The chosen plan must always be ε-competitive at its grid point.
	pnt := d.Space.At(make(paramspace.GridPoint, d.Space.D()))
	best := math.Inf(1)
	for _, lp := range d.SupportedPlans() {
		if c := d.Ev.PlanCost(lp.Plan, pnt); c < best {
			best = c
		}
	}
	if got := d.Ev.PlanCost(planLo, pnt); got > best*(1+d.cfg.Robust.Epsilon)+1e-9 {
		t.Fatalf("classified plan cost %v not ε-competitive with %v", got, best)
	}
}

// sels builds a snapshot selectivity vector pinned to grid index k for the
// space's selectivity dims.
func sels(d *Deployment, k int) []float64 {
	out := make([]float64, len(d.Query.Ops))
	for i := range out {
		out[i] = d.Query.Ops[i].Sel
	}
	for j, dim := range d.Space.Dims {
		if dim.Kind == paramspace.Selectivity {
			out[dim.Op] = d.Space.Value(j, k)
		}
	}
	return out
}

// TestClassifyClampsOutOfRangeStats: no statistic a monitor can publish —
// out of range, non-finite, negative, missing — makes Classify panic or
// answer a plan the physical plan does not support.
func TestClassifyClampsOutOfRangeStats(t *testing.T) {
	q := query.NewNWayJoin("Q1", 5, 2)
	dims := append(fixtureDims(q), paramspace.RateDim("S1", q.Rates["S1"], 3))
	d, err := Optimize(q, dims, cluster.NewHomogeneous(3, 60), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := func(v float64) stats.Snapshot {
		snap := stats.Snapshot{Sels: make([]float64, len(q.Ops)), Rates: map[string]float64{"S1": v}}
		for i := range snap.Sels {
			snap.Sels[i] = v
		}
		return snap
	}
	cases := map[string]stats.Snapshot{
		"far above":      all(5),
		"NaN":            all(math.NaN()),
		"+Inf":           all(math.Inf(1)),
		"-Inf":           all(math.Inf(-1)),
		"negative":       all(-0.5),
		"zero rate":      {Sels: sels(d, 1), Rates: map[string]float64{"S1": 0}},
		"short Sels":     {Sels: []float64{0.3}, Rates: map[string]float64{}},
		"nil Sels":       {Rates: map[string]float64{"S1": 1e9}},
		"nil Rates":      {Sels: sels(d, 2)},
		"empty snapshot": {},
	}
	for name, snap := range cases {
		plan, idx := d.Classify(snap)
		if plan == nil || !slices.Contains(d.Physical.Supported, idx) {
			t.Errorf("%s: Classify = %v, %d; want a plan in Supported %v", name, plan, idx, d.Physical.Supported)
		}
	}
}

// referencePlan is the classifier Optimize compiles, decided directly at
// grid point g: the first supported plan, in Supported order, whose region
// contains g, else the cheapest supported plan at g (fallback reports
// this case), else the highest-weight plan.
func referencePlan(d *Deployment, g paramspace.GridPoint) (plan int, fallback bool) {
	if len(d.Physical.Supported) == 0 {
		best := 0
		for i, lp := range d.Plans {
			if lp.Weight > d.Plans[best].Weight {
				best = i
			}
		}
		return best, false
	}
	for _, i := range d.Physical.Supported {
		for _, reg := range d.Logical.PlanByKey(d.Plans[i].Plan.Key()).Regions {
			if reg.Contains(g) {
				return i, false
			}
		}
	}
	pnt := d.Space.At(g)
	best := -1
	for _, i := range d.Physical.Supported {
		if best == -1 || d.Ev.PlanCost(d.Plans[i].Plan, pnt) < d.Ev.PlanCost(d.Plans[best].Plan, pnt) {
			best = i
		}
	}
	return best, true
}

// snapshotAt returns a snapshot holding value(i) on every dimension i of d's
// space, and the operators' estimates elsewhere.
func snapshotAt(d *Deployment, value func(i int) float64) stats.Snapshot {
	snap := stats.Snapshot{Sels: make([]float64, len(d.Query.Ops)), Rates: map[string]float64{}}
	for i, op := range d.Query.Ops {
		snap.Sels[i] = op.Sel
	}
	for i, dim := range d.Space.Dims {
		if dim.Kind == paramspace.Selectivity {
			snap.Sels[dim.Op] = value(i)
		} else {
			snap.Rates[dim.Stream] = value(i)
		}
	}
	return snap
}

// randomDeployments compiles a random query over 1–4 dimensions (selectivity
// and rate dims alternating) at two ε, each on a roomy cluster and on the
// first cluster of a shrinking sequence that supports some plans but not
// all, when one exists: there the cost fallback decides the cells no
// supported region covers.
func randomDeployments(t *testing.T) map[string]*Deployment {
	rng := rand.New(rand.NewSource(51))
	out := map[string]*Deployment{}
	for n := 1; n <= 4; n++ {
		q := query.NewRandomQuery("R", 5, 2, rng)
		var dims []paramspace.Dim
		for j := 0; j < n; j++ {
			if j%2 == 0 {
				dims = append(dims, paramspace.SelDim(j, q.Ops[j].Sel, 3))
			} else {
				dims = append(dims, paramspace.RateDim(q.Streams[j], q.Rates[q.Streams[j]], 3))
			}
		}
		for _, eps := range []float64{0.05, 0.2} {
			cfg := DefaultConfig()
			cfg.Robust.Epsilon = eps
			cfg.Steps = 8
			roomy, err := Optimize(q, dims, cluster.NewHomogeneous(3, 1e9), cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("dims=%d/eps=%v/roomy", n, eps)] = roomy
			capacity := 0.0
			for _, lp := range roomy.Plans {
				sum := 0.0
				for _, l := range lp.Loads {
					sum += l
				}
				capacity = max(capacity, sum)
			}
			for ; capacity > 1e-3; capacity *= 0.9 {
				d, err := Optimize(q, dims, cluster.NewHomogeneous(3, capacity), cfg)
				if err == nil && len(d.Physical.Supported) > 0 && len(d.Physical.Supported) < len(d.Plans) {
					out[fmt.Sprintf("dims=%d/eps=%v/tight", n, eps)] = d
					break
				}
			}
		}
	}
	return out
}

// TestClassifyMatchesReference pins the compiled classifier to
// referencePlan: at every grid point, at random off-grid snapshots (which
// must classify like their nearest grid point, found here by brute force),
// on random deployments and on one whose physical plan supports nothing.
// Zero selectivities are observations: they classify at coordinate 0 of
// every selectivity dimension, not at the base estimate.
func TestClassifyMatchesReference(t *testing.T) {
	deps := randomDeployments(t)
	empty := *deps["dims=2/eps=0.05/roomy"]
	phys := *empty.Physical
	phys.Supported = nil
	empty.Physical = &phys
	empty.fill()
	deps["supports nothing"] = &empty

	rng := rand.New(rand.NewSource(7))
	fallbackCells := 0
	for name, d := range deps {
		sp := d.Space
		o := 0
		sp.FullRegion().ForEach(func(g paramspace.GridPoint) bool {
			want, fallback := referencePlan(d, g)
			if fallback {
				fallbackCells++
			}
			snap := snapshotAt(d, func(i int) float64 { return sp.Value(i, g[i]) })
			if got := d.cell(snap); got != o {
				t.Fatalf("%s: grid point %v snaps to ordinal %d, want %d", name, g, got, o)
			}
			if _, got := d.Classify(snap); got != want {
				t.Fatalf("%s: Classify at %v = %d, reference %d", name, g, got, want)
			}
			o++
			return true
		})
		for k := 0; k < 200; k++ {
			g := make(paramspace.GridPoint, sp.D())
			snap := snapshotAt(d, func(i int) float64 {
				dim := sp.Dims[i]
				v := dim.Lo + (rng.Float64()*1.5-0.25)*(dim.Hi-dim.Lo)
				for c := range sp.Steps {
					if math.Abs(sp.Value(i, c)-v) < math.Abs(sp.Value(i, g[i])-v) {
						g[i] = c
					}
				}
				return v
			})
			if got, want := d.cell(snap), sp.Ordinal(g); got != want {
				t.Fatalf("%s: off-grid snapshot snaps to ordinal %d, nearest grid point %v is %d", name, got, g, want)
			}
			want, _ := referencePlan(d, g)
			if _, got := d.Classify(snap); got != want {
				t.Fatalf("%s: off-grid Classify = %d, reference at nearest %v = %d", name, got, g, want)
			}
		}
		// A zero rate is no observation: rate dims stay at the base.
		zero := snapshotAt(d, func(int) float64 { return 0 })
		g := sp.Center()
		for i, dim := range sp.Dims {
			if dim.Kind == paramspace.Selectivity {
				g[i] = 0
			}
		}
		if got, want := d.cell(zero), sp.Ordinal(g); got != want {
			t.Errorf("%s: zero selectivities snap to ordinal %d, want %d (%v)", name, got, want, g)
		}
	}
	if fallbackCells == 0 {
		t.Fatal("no deployment left a grid point outside every supported region; the cost fallback went untested")
	}
}

func TestClassifyOverheadSmall(t *testing.T) {
	d := deploy(t, DefaultConfig())
	work := d.ClassifyOverheadWork(100)
	if work <= 0 {
		t.Fatal("classification work should be positive")
	}
	// ≈2% of a 100-tuple batch's pipeline work at the center.
	center := d.Space.At(d.Space.Center())
	plan, _ := d.Classify(stats.Snapshot{Sels: sels(d, d.Space.Steps/2), Rates: map[string]float64{}})
	batchWork := 0.0
	carry := 1.0
	for _, op := range plan {
		batchWork += d.Ev.UnitCost(op, center) * carry * 100
		carry *= d.Ev.Sel(op, center)
	}
	ratio := work / batchWork
	if ratio < 0.005 || ratio > 0.1 {
		t.Fatalf("classify overhead ratio %v outside sane band", ratio)
	}
}

func TestPolicyImplementsSimPolicy(t *testing.T) {
	d := deploy(t, DefaultConfig())
	pol := d.NewPolicy(100)
	if pol.Name() != "RLD" {
		t.Fatal("name wrong")
	}
	if !pol.Placement().Complete() {
		t.Fatal("placement incomplete")
	}
	if pol.Rebalance(0, nil, nil) != nil {
		t.Fatal("RLD must never migrate")
	}
	if pol.DecisionOverhead() != 0 {
		t.Fatal("RLD has no controller overhead")
	}
	if pol.ClassifyOverhead() <= 0 {
		t.Fatal("RLD classification overhead missing")
	}
	snap := stats.Snapshot{Sels: sels(d, 0), Rates: map[string]float64{}}
	if pol.PlanFor(0, snap) == nil {
		t.Fatal("PlanFor returned nil")
	}
}

func TestRLDPolicyRunsInSimulator(t *testing.T) {
	d := deploy(t, DefaultConfig())
	sc := &sim.Scenario{
		Query:     d.Query,
		Rates:     map[string]gen.Profile{},
		Sels:      make([]gen.Profile, len(d.Query.Ops)),
		Cluster:   d.Cluster,
		BatchSize: 20,
		Seed:      3,
	}
	for _, s := range d.Query.Streams {
		sc.Rates[s] = gen.ConstProfile(d.Query.Rates[s])
	}
	for i := range sc.Sels {
		sc.Sels[i] = gen.ConstProfile(d.Query.Ops[i].Sel)
	}
	ss, err := sim.OpenSession(sc, d.NewPolicy(sc.BatchSize), runtime.SessionOptions{Horizon: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Replay(context.Background(), ss, sc.Arrivals(300))
	if err != nil {
		t.Fatal(err)
	}
	if res.Produced == 0 {
		t.Fatal("RLD produced nothing")
	}
	if res.Migrations != 0 {
		t.Fatal("RLD migrated")
	}
	// §6.5: classification overhead ≈2% of execution.
	if r := res.OverheadRatio(); r <= 0 || r > 0.1 {
		t.Fatalf("overhead ratio %v outside expected band", r)
	}
}

func TestDefaultConfigValues(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Logical != LogicalERP || cfg.Physical != PhysicalOptPrune {
		t.Fatal("defaults wrong")
	}
	if cfg.ClassifyFraction != 0.02 {
		t.Fatal("classification fraction should default to 2%")
	}
	if cfg.Steps != paramspace.DefaultSteps {
		t.Fatal("steps default wrong")
	}
}

// TestOptimizeRepeatable pins that Optimize is a function of its inputs:
// ten compiles of one query give the same plans in the same order, the same
// regions, the same supported set and the same placement. Algorithm 3's
// extras used to follow map iteration order, which reordered the plan list
// and sometimes moved the placement.
func TestOptimizeRepeatable(t *testing.T) {
	q := query.NewNWayJoin("Q8way", 8, 2)
	var sel []paramspace.Dim
	for _, op := range []int{0, 2, 4, 6} {
		sel = append(sel, paramspace.SelDim(op, q.Ops[op].Sel, 3))
	}
	cases := map[string][]paramspace.Dim{
		"sel4":  sel,
		"rate1": append(sel[:3:3], paramspace.RateDim("S1", q.Rates["S1"], 3)),
	}
	for name, dims := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Steps = 6
			var want string
			for run := 0; run < 10; run++ {
				d, err := Optimize(q, dims, cluster.NewHomogeneous(4, 80), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for _, rp := range d.Logical.AllPlans() {
					fmt.Fprintln(&b, rp.Plan.Key(), rp.Regions)
				}
				fmt.Fprintln(&b, d.Physical.Supported, d.Physical.Assign, d.Physical.Score)
				if run == 0 {
					want = b.String()
				} else if got := b.String(); got != want {
					t.Fatalf("run %d differs from run 0:\n%s\nwant:\n%s", run, got, want)
				}
			}
		})
	}
}
