package baseline

import (
	"fmt"
	"math"

	"rld/internal/cluster"
	"rld/internal/cost"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
)

// DYNConfig tunes the dynamic load-distribution baseline.
type DYNConfig struct {
	// ImbalanceFactor triggers a migration when the hottest node's queued
	// work exceeds this multiple of the coldest node's (Borealis balances
	// load variance across node pairs).
	ImbalanceFactor float64
	// ActivationFloor is the minimum hot-node queued work (cost-units)
	// before migration is considered; avoids thrashing on idle systems.
	ActivationFloor float64
	// SuspendSeconds is the fixed operator-suspension cost per migration.
	SuspendSeconds float64
	// StateTransferPerTuple is the seconds per window-state tuple moved.
	StateTransferPerTuple float64
	// DecisionWork is the per-tick statistics/decision cost in
	// cost-units (continuous statistics maintenance, §6.5).
	DecisionWork float64
	// CooldownSeconds is the per-operator minimum time between moves
	// (anti-thrash guard).
	CooldownSeconds float64
}

// DefaultDYNConfig returns DYN's stock tuning. Its ActivationFloor is an
// absolute 50 cost-units, whatever the cluster's capacity: the §6.5 study
// (experiments.Study) overrides it with half a node's capacity per second,
// and cmd/rldrun retunes it for live sessions, whose queues count messages.
func DefaultDYNConfig() DYNConfig {
	return DYNConfig{
		ImbalanceFactor:       2.5,
		ActivationFloor:       50,
		SuspendSeconds:        0.25,
		StateTransferPerTuple: 0.002,
		DecisionWork:          5,
		CooldownSeconds:       30,
	}
}

// DYN is the dynamic load-distribution policy: a single compile-time logical
// plan, an LLF initial placement at the estimate point, and a periodic
// controller that migrates the heaviest operator off the most loaded node
// whenever the load imbalance crosses the configured factor. Migrations
// suspend the operator for the suspension time plus window-state transfer
// (state size ∝ stream rate × window length).
type DYN struct {
	cfg    DYNConfig
	ev     *cost.Evaluator
	plan   query.Plan
	assign physical.Assignment
	// lastMove prevents ping-ponging one operator every tick.
	lastMove map[int]float64
	cooldown float64
}

// NewDYN builds the DYN policy.
func NewDYN(ev *cost.Evaluator, cl *cluster.Cluster, cfg DYNConfig) (*DYN, error) {
	plan, center := centerPlan(ev)
	assign, ok := physical.LLF(ev.OpLoads(plan, center), cl)
	if !ok {
		return nil, fmt.Errorf("baseline: DYN cannot place %d ops on %v", len(ev.Query().Ops), cl)
	}
	if cfg.ImbalanceFactor <= 1 {
		cfg.ImbalanceFactor = 2
	}
	cooldown := cfg.CooldownSeconds
	if cooldown <= 0 {
		cooldown = 30
	}
	return &DYN{
		cfg:      cfg,
		ev:       ev,
		plan:     plan,
		assign:   assign,
		lastMove: make(map[int]float64),
		cooldown: cooldown,
	}, nil
}

// Name implements runtime.Policy.
func (d *DYN) Name() string { return "DYN" }

// Placement implements runtime.Policy.
func (d *DYN) Placement() physical.Assignment { return d.assign.Clone() }

// PlanFor implements runtime.Policy: DYN never reorders the logical plan —
// "load migration only changes the operators' physical layout" (§6.5).
func (d *DYN) PlanFor(float64, stats.Snapshot) query.Plan { return d.plan }

// ClassifyOverhead implements runtime.Policy.
func (d *DYN) ClassifyOverhead() float64 { return 0 }

// DecisionOverhead implements runtime.Policy.
func (d *DYN) DecisionOverhead() float64 { return d.cfg.DecisionWork }

// migrationDowntime estimates the pause for moving op: suspension plus
// window-state transfer (state tuples ≈ stream rate × window seconds).
func (d *DYN) migrationDowntime(op int) float64 {
	q := d.ev.Query()
	o := q.Ops[op]
	stateTuples := 0.0
	if o.Stream != "" {
		stateTuples = q.Rates[o.Stream] * q.WindowSeconds
	}
	return d.cfg.SuspendSeconds + d.cfg.StateTransferPerTuple*stateTuples
}

// Rebalance implements runtime.Policy: move the heaviest operator from the
// hottest node to the coldest when imbalance crosses the factor. Crashed
// nodes (reporting the runtime.DownLoad sentinel) trigger DYN's emergency
// re-placement path first: their operators are evacuated to the
// least-loaded live node, one per tick, bypassing the imbalance trigger
// and the anti-thrash cooldown — the Borealis-style response to a
// membership change.
func (d *DYN) Rebalance(t float64, nodeLoads []float64, assign physical.Assignment) *runtime.Migration {
	d.assign = assign.Clone()
	if len(nodeLoads) < 2 {
		return nil
	}
	if mig := d.evacuate(t, nodeLoads, assign); mig != nil {
		return mig
	}
	hot, cold := -1, -1
	for i, l := range nodeLoads {
		if runtime.NodeDown(l) {
			continue // dead nodes are neither sources nor targets here
		}
		if hot < 0 || l > nodeLoads[hot] {
			hot = i
		}
		if cold < 0 || l < nodeLoads[cold] {
			cold = i
		}
	}
	if hot < 0 || hot == cold {
		return nil
	}
	if nodeLoads[hot] < d.cfg.ActivationFloor {
		return nil
	}
	if nodeLoads[hot] < d.cfg.ImbalanceFactor*(nodeLoads[cold]+1e-9) {
		return nil
	}
	// Heaviest operator on the hot node (by estimate loads under the
	// fixed plan) that has not just moved.
	center := d.ev.Space().At(d.ev.Space().Center())
	loads := d.ev.OpLoads(d.plan, center)
	best, bestLoad := -1, 0.0
	for op, nd := range assign {
		if nd != hot {
			continue
		}
		if t-d.lastMove[op] < d.cooldown {
			continue
		}
		if loads[op] > bestLoad {
			best, bestLoad = op, loads[op]
		}
	}
	if best < 0 {
		return nil
	}
	d.lastMove[best] = t
	d.assign[best] = cold
	return &runtime.Migration{Op: best, To: cold, Downtime: d.migrationDowntime(best)}
}

// evacuate is DYN's failure response: if any node reports the crashed
// sentinel and still hosts operators, move the heaviest one (by estimate
// loads under the fixed plan) to the least-loaded live node. Returns nil
// when no node is down, every down node is already empty, or no live
// target exists.
func (d *DYN) evacuate(t float64, nodeLoads []float64, assign physical.Assignment) *runtime.Migration {
	cold, coldLoad := -1, math.Inf(1)
	for i, l := range nodeLoads {
		if !runtime.NodeDown(l) && l < coldLoad {
			cold, coldLoad = i, l
		}
	}
	if cold < 0 {
		return nil
	}
	center := d.ev.Space().At(d.ev.Space().Center())
	loads := d.ev.OpLoads(d.plan, center)
	best, bestLoad := -1, -1.0
	for op, nd := range assign {
		if nd < 0 || nd >= len(nodeLoads) || !runtime.NodeDown(nodeLoads[nd]) {
			continue
		}
		if loads[op] > bestLoad {
			best, bestLoad = op, loads[op]
		}
	}
	if best < 0 {
		return nil
	}
	d.lastMove[best] = t
	d.assign[best] = cold
	return &runtime.Migration{Op: best, To: cold, Downtime: d.migrationDowntime(best)}
}

// Plan exposes the fixed logical plan.
func (d *DYN) Plan() query.Plan { return d.plan.Clone() }

var _ runtime.Policy = (*DYN)(nil)
