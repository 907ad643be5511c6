// Package core wires the paper's full RLD pipeline together (Figure 5): it
// builds the parameter space from statistic estimates and uncertainty levels
// (Algorithm 1), runs a robust logical solution algorithm (ERP by default),
// weights the plans with the occurrence model, maps them onto a single
// robust physical plan (OptPrune by default), and exposes the runtime side —
// the QueryMesh-style online classifier that assigns a logical plan to every
// tuple batch without ever migrating an operator. The classifier's decision
// is compiled once: Optimize fills a table with the chosen plan at every grid
// point, and each batch only snaps its statistics to the nearest grid point
// and reads that point's entry.
package core

import (
	"fmt"
	"math"

	"rld/internal/cluster"
	"rld/internal/cost"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/robust"
	"rld/internal/runtime"
	"rld/internal/stats"
)

// LogicalAlgo selects the robust logical solution algorithm.
type LogicalAlgo string

// Logical algorithms.
const (
	LogicalERP LogicalAlgo = "erp"
	LogicalWRP LogicalAlgo = "wrp"
	LogicalES  LogicalAlgo = "es"
	LogicalRS  LogicalAlgo = "rs"
)

// PhysicalAlgo selects the physical plan generator.
type PhysicalAlgo string

// Physical algorithms.
const (
	PhysicalGreedy     PhysicalAlgo = "greedy"
	PhysicalOptPrune   PhysicalAlgo = "optprune"
	PhysicalExhaustive PhysicalAlgo = "exhaustive"
)

// Config parameterizes the end-to-end RLD optimizer.
type Config struct {
	// Robust holds the logical-phase parameters (ε, δ, confidence).
	Robust robust.Config
	// Steps is the per-dimension grid resolution (default
	// paramspace.DefaultSteps).
	Steps int
	// Logical picks the solution algorithm (default ERP).
	Logical LogicalAlgo
	// Physical picks the placement algorithm (default OptPrune).
	Physical PhysicalAlgo
	// ClassifyFraction sizes the per-batch classification overhead as a
	// fraction of the whole-pipeline work of a reference 100-tuple ruster
	// at the centre of the space (§6.5 measures ≈2%).
	ClassifyFraction float64
}

// DefaultConfig returns the paper-default configuration.
func DefaultConfig() Config {
	return Config{
		Robust:           robust.DefaultConfig(),
		Steps:            paramspace.DefaultSteps,
		Logical:          LogicalERP,
		Physical:         PhysicalOptPrune,
		ClassifyFraction: 0.02,
	}
}

// Deployment is a compiled RLD deployment: everything the runtime needs.
type Deployment struct {
	Query    *query.Query
	Space    *paramspace.Space
	Ev       *cost.Evaluator
	Logical  *robust.Result
	Plans    []physical.LogicalPlan
	Physical *physical.Plan
	Cluster  *cluster.Cluster
	Model    *paramspace.OccurrenceModel
	cfg      Config
	// table[Space.Ordinal(g)] is the index into Plans that Classify
	// answers at grid point g, filled once by Optimize.
	table []uint16
}

// Optimize runs the two-step RLD optimization for query q over the given
// uncertain dimensions and cluster. It fails when no placement fits the
// cluster, or when the one it finds supports none of the robust plans.
func Optimize(q *query.Query, dims []paramspace.Dim, cl *cluster.Cluster, cfg Config) (*Deployment, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("core: no uncertain dimensions declared")
	}
	if cfg.Steps < 2 {
		cfg.Steps = paramspace.DefaultSteps
	}
	if cfg.ClassifyFraction <= 0 {
		cfg.ClassifyFraction = 0.02
	}
	space := paramspace.New(dims, cfg.Steps)
	ev := cost.NewEvaluator(q, space)
	counter := optimizer.NewCounter(optimizer.NewRank(ev))
	if cfg.Robust.MaxCalls > 0 {
		counter.Budget = cfg.Robust.MaxCalls
	}

	var res *robust.Result
	switch cfg.Logical {
	case LogicalWRP:
		res = robust.WRP(counter, ev, cfg.Robust)
	case LogicalES:
		res = robust.ES(counter, space, cfg.Robust)
	case LogicalRS:
		res = robust.RS(counter, space, cfg.Robust)
	case LogicalERP, "":
		res = robust.ERP(counter, ev, cfg.Robust)
	default:
		return nil, fmt.Errorf("core: unknown logical algorithm %q", cfg.Logical)
	}
	if res.NumPlans() == 0 {
		return nil, fmt.Errorf("core: %s produced no robust plans (budget too small?)", cfg.Logical)
	}
	if res.NumPlans() > math.MaxUint16 {
		return nil, fmt.Errorf("core: %s produced %d robust plans, more than the classifier indexes (%d)", cfg.Logical, res.NumPlans(), math.MaxUint16)
	}
	model := paramspace.NewOccurrenceModel(space)
	res.AssignWeights(model)
	plans := physical.FromRobust(res, ev)

	var pp *physical.Plan
	switch cfg.Physical {
	case PhysicalGreedy:
		pp = physical.GreedyPhy(plans, cl, len(q.Ops))
	case PhysicalExhaustive:
		pp = physical.Exhaustive(plans, cl, len(q.Ops))
	case PhysicalOptPrune, "":
		pp = physical.OptPrune(plans, cl, len(q.Ops))
	default:
		return nil, fmt.Errorf("core: unknown physical algorithm %q", cfg.Physical)
	}
	if pp == nil {
		return nil, fmt.Errorf("core: no feasible physical plan on %v (total load exceeds capacity)", cl)
	}
	if len(pp.Supported) == 0 {
		// The classifier would run a plan the placement cannot carry.
		return nil, fmt.Errorf("core: the placement on %v supports none of the %d robust plans (capacity too small for any plan)", cl, len(plans))
	}
	d := &Deployment{
		Query:    q,
		Space:    space,
		Ev:       ev,
		Logical:  res,
		Plans:    plans,
		Physical: pp,
		Cluster:  cl,
		Model:    model,
		cfg:      cfg,
	}
	d.fill()
	return d, nil
}

// SupportedPlans returns the logical plans the physical plan supports.
func (d *Deployment) SupportedPlans() []physical.LogicalPlan {
	out := make([]physical.LogicalPlan, 0, len(d.Physical.Supported))
	for _, i := range d.Physical.Supported {
		out = append(out, d.Plans[i])
	}
	return out
}

// fill compiles Classify's answer at every grid point into d.table: the
// first supported plan, in Supported order, whose region contains the point,
// else the cheapest supported plan at the point, else — when nothing is
// supported, which Optimize refuses to deploy — the highest-weight plan.
func (d *Deployment) fill() {
	all := d.Logical.AllPlans() // all[i] is Plans[i]'s robust plan
	d.table = make([]uint16, d.Space.NumPoints())
	o := 0
	d.Space.FullRegion().ForEach(func(g paramspace.GridPoint) bool {
		d.table[o] = uint16(d.planAt(g, all))
		o++
		return true
	})
}

func (d *Deployment) planAt(g paramspace.GridPoint, all []*robust.RobustPlan) int {
	supported := d.Physical.Supported
	if len(supported) == 0 {
		best := 0
		for i := range d.Plans {
			if d.Plans[i].Weight > d.Plans[best].Weight {
				best = i
			}
		}
		return best
	}
	for _, i := range supported {
		for _, reg := range all[i].Regions {
			if reg.Contains(g) {
				return i
			}
		}
	}
	pnt := d.Space.At(g)
	best, bestCost := -1, 0.0
	for _, i := range supported {
		c := d.Ev.PlanCost(d.Plans[i].Plan, pnt)
		if best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}

// Classify is the QueryMesh-style online classifier (§3, "robust load
// executor"): snap the latest statistics to the nearest grid point and
// return the plan Optimize compiled for it — the supported robust plan
// whose certified region contains the point, else the cheapest supported
// plan at that grid point. Returns the plan and its index into Plans.
func (d *Deployment) Classify(snap stats.Snapshot) (query.Plan, int) {
	i := int(d.table[d.cell(snap)])
	return d.Plans[i].Plan, i
}

// cell returns the ordinal of the grid point nearest to snap. A
// selectivity is read as it is, zero included: a live monitor publishes the
// compile-time estimates until its first offer, so a zero is an
// observation. A missing selectivity, and a rate that is missing or not
// positive, read as the dimension's base.
func (d *Deployment) cell(snap stats.Snapshot) int {
	sp := d.Space
	o, stride := 0, 1
	for i := range sp.Dims {
		dim := &sp.Dims[i]
		v := dim.Base
		switch dim.Kind {
		case paramspace.Selectivity:
			if dim.Op >= 0 && dim.Op < len(snap.Sels) {
				v = snap.Sels[dim.Op]
			}
		case paramspace.Rate:
			if r, ok := snap.Rates[dim.Stream]; ok && r > 0 {
				v = r
			}
		}
		o += sp.Nearest(i, v) * stride
		stride *= sp.Steps
	}
	return o
}

// referenceRuster is Table 2's default ruster size: the §6.5 "≈2% of
// execution" classification overhead is quoted at this batch size.
const referenceRuster = 100

// ClassifyOverheadWork estimates per-batch classification work in
// cost-units. Classification inspects statistics once per batch, so its
// cost is independent of the batch size: ClassifyFraction × the pipeline
// work of a reference (100-tuple) ruster at the estimate point. Smaller
// rusters therefore pay proportionally more overhead (the batch-size
// ablation), larger ones amortize it away.
func (d *Deployment) ClassifyOverheadWork(batchSize int) float64 {
	if len(d.Plans) == 0 || batchSize <= 0 {
		return 0
	}
	center := d.Space.At(d.Space.Center())
	p, _ := optimizer.NewRank(d.Ev).Best(center)
	perTupleWork := 0.0
	carry := 1.0
	for _, op := range p {
		perTupleWork += d.Ev.UnitCost(op, center) * carry
		carry *= d.Ev.Sel(op, center)
	}
	return d.cfg.ClassifyFraction * perTupleWork * referenceRuster
}

// Policy adapts the deployment to the simulator's Policy interface: static
// placement from the robust physical plan, per-batch classification, no
// migrations.
type Policy struct {
	dep          *Deployment
	classifyWork float64
}

// NewPolicy builds the RLD runtime policy. The ruster size only switches the
// classification overhead off at ≤ 0: every positive size is charged the
// same per-batch work (see ClassifyOverheadWork).
func (d *Deployment) NewPolicy(batchSize int) *Policy {
	return &Policy{dep: d, classifyWork: d.ClassifyOverheadWork(batchSize)}
}

// Name implements runtime.Policy.
func (p *Policy) Name() string { return "RLD" }

// Placement implements runtime.Policy.
func (p *Policy) Placement() physical.Assignment { return p.dep.Physical.Assign.Clone() }

// PlanFor implements runtime.Policy.
func (p *Policy) PlanFor(_ float64, snap stats.Snapshot) query.Plan {
	plan, _ := p.dep.Classify(snap)
	return plan
}

// ClassifyOverhead implements runtime.Policy.
func (p *Policy) ClassifyOverhead() float64 { return p.classifyWork }

// Rebalance implements runtime.Policy: RLD never migrates.
func (p *Policy) Rebalance(float64, []float64, physical.Assignment) *runtime.Migration { return nil }

// DecisionOverhead implements runtime.Policy.
func (p *Policy) DecisionOverhead() float64 { return 0 }

var _ runtime.Policy = (*Policy)(nil)
