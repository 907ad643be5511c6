// Package runtime defines the substrate-agnostic execution layer of the RLD
// system: a Policy is a load-distribution strategy (RLD, ROD, DYN, or any
// custom strategy) expressed independently of where it runs, and a Session
// is a running pipeline on one substrate — the discrete-event simulator,
// the live goroutine dataflow engine, or the multi-process cluster — that
// executes any Policy and fills the shared Report result type. This mirrors
// the paper's central claim: the robust physical plan lets the runtime
// execute *any* plan in the robust logical solution without migration, so
// the policy layer must not care whether batches are simulated cost-units
// or real tuples.
package runtime

import (
	"math"

	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stats"
)

// DownLoad is the sentinel per-node load value sessions report to
// Policy.Rebalance for a crashed node: +Inf, so threshold-based policies
// naturally treat a dead node as infinitely overloaded. Policies that
// respond to failures (DYN's emergency re-placement) detect it with
// math.IsInf; policies that ignore loads (RLD, ROD, static) need no
// change.
var DownLoad = math.Inf(1)

// NodeDown reports whether a Rebalance load value is the crashed-node
// sentinel.
func NodeDown(load float64) bool { return math.IsInf(load, 1) }

// Migration moves one operator to another node, pausing it for Downtime
// seconds of suspension plus state transfer (only DYN-style policies emit
// these; the robust physical plan never needs them).
type Migration struct {
	Op       int
	To       int
	Downtime float64
}

// Policy is a load-distribution strategy under test: it provides the initial
// operator placement, chooses a logical plan per batch, and may request
// operator migrations at control ticks. Implementations must be safe for
// use from a single goroutine; sessions serialize all calls (the live
// engine's session admits batches concurrently but still funnels
// PlanFor/ClassifyOverhead through one policy lock).
// Policies may be stateful (DYN tracks per-operator cooldowns and the live
// assignment), so use a fresh instance per session when comparing runs
// — carried-over state would leak one run's clock and placement into the
// next.
type Policy interface {
	// Name labels the policy in results (RLD/ROD/DYN/...).
	Name() string
	// Placement returns the initial operator → node assignment.
	Placement() physical.Assignment
	// PlanFor selects the logical plan for a batch arriving at virtual
	// time t, given the monitor's current snapshot.
	PlanFor(t float64, snap stats.Snapshot) query.Plan
	// ClassifyOverhead is the per-batch plan-selection work in cost-units
	// (RLD's ≈2%; zero for static policies).
	ClassifyOverhead() float64
	// Rebalance is invoked every control tick with per-node queued work
	// and the live assignment; a non-nil result migrates one operator.
	Rebalance(t float64, nodeLoads []float64, assign physical.Assignment) *Migration
	// DecisionOverhead is the per-tick control work in cost-units (DYN's
	// statistics collection and placement solving; zero for static).
	DecisionOverhead() float64
}

// StaticPolicy is the simplest Policy: one fixed plan, one fixed placement,
// no overheads, no migrations — the configuration a conventional optimizer
// deploys. It doubles as the adapter for running hand-built plans on either
// substrate.
type StaticPolicy struct {
	// PolicyName labels the policy in results (default "STATIC").
	PolicyName string
	// Plan is the fixed logical plan.
	Plan query.Plan
	// Assign is the fixed operator → node placement.
	Assign physical.Assignment
}

// Name implements Policy.
func (s *StaticPolicy) Name() string {
	if s.PolicyName == "" {
		return "STATIC"
	}
	return s.PolicyName
}

// Placement implements Policy.
func (s *StaticPolicy) Placement() physical.Assignment { return s.Assign.Clone() }

// PlanFor implements Policy.
func (s *StaticPolicy) PlanFor(float64, stats.Snapshot) query.Plan { return s.Plan }

// ClassifyOverhead implements Policy.
func (s *StaticPolicy) ClassifyOverhead() float64 { return 0 }

// Rebalance implements Policy.
func (s *StaticPolicy) Rebalance(float64, []float64, physical.Assignment) *Migration { return nil }

// DecisionOverhead implements Policy.
func (s *StaticPolicy) DecisionOverhead() float64 { return 0 }

var _ Policy = (*StaticPolicy)(nil)

// Report is the substrate-agnostic result of one run: both the simulator and
// the live engine fill it, so experiments can compare policies across
// substrates with one code path.
type Report struct {
	// Policy is the load-distribution policy name (RLD/ROD/DYN/...).
	Policy string
	// Substrate identifies what ran the session ("sim", "engine" or "net").
	Substrate string
	// Ingested counts source tuples admitted.
	Ingested float64
	// Produced counts result tuples emitted by the query sink.
	Produced float64
	// ProducedOverTime samples cumulative Produced over virtual time at
	// every control tick and at the end of the run (simulation only; empty
	// on the live substrates).
	ProducedOverTime Timeline
	// Dropped counts tuples shed by overloaded admission queues.
	Dropped float64
	// Batches counts tuple batches routed through the pipeline.
	Batches int64
	// MeanLatencyMS is the mean ingress→sink latency in milliseconds
	// (virtual time under simulation, wall time on the live engine).
	MeanLatencyMS float64
	// PlanUse counts batches per logical plan key.
	PlanUse map[string]int64
	// PlanSwitches counts logical plan changes between consecutive
	// batches.
	PlanSwitches int
	// Migrations counts operator relocations (DYN-style policies only).
	Migrations int
	// MigrationDowntime is the summed operator pause time in seconds.
	MigrationDowntime float64
	// OverheadWork is runtime work outside query processing in cost-units
	// (classification for RLD, control decisions for DYN).
	OverheadWork float64
	// QueryWork is query-processing work in cost-units (simulation only).
	QueryWork float64
	// WallSeconds is the wall-clock duration of the run (engine only).
	WallSeconds float64
	// Crashes counts node outages during the run: every outage, injected
	// or detected.
	Crashes int
	// DownSeconds is the summed virtual time nodes spent down, over every
	// outage, injected or detected.
	DownSeconds float64
	// TuplesLost counts tuples (source tuples or in-flight partial
	// results) discarded because of node failures.
	TuplesLost float64
	// Restores counts checkpoint-restores performed on node recovery
	// (engine, Checkpoint mode only).
	Restores int
}

// Timeline records a cumulative series sampled over virtual time —
// Figure 15(b)'s "total number of tuples produced" curves.
type Timeline struct {
	Times  []float64
	Values []float64
}

// Record appends a (time, cumulative value) sample.
func (t *Timeline) Record(at, value float64) {
	t.Times = append(t.Times, at)
	t.Values = append(t.Values, value)
}

// ValueAt returns the last recorded value at or before the given time (0
// before the first sample).
func (t *Timeline) ValueAt(at float64) float64 {
	v := 0.0
	for i, ts := range t.Times {
		if ts > at {
			break
		}
		v = t.Values[i]
	}
	return v
}

// OutputRatio returns Produced/Ingested (0 when nothing was ingested) — the
// quantity the cross-substrate conformance check compares.
func (r *Report) OutputRatio() float64 {
	if r.Ingested == 0 {
		return 0
	}
	return r.Produced / r.Ingested
}

// PlanCount returns the number of distinct logical plans used.
func (r *Report) PlanCount() int { return len(r.PlanUse) }

// OverheadRatio returns overhead work as a fraction of query work (§6.5
// reports ≈2% for RLD classification); 0 when the substrate does not
// model query work.
func (r *Report) OverheadRatio() float64 {
	if r.QueryWork == 0 {
		return 0
	}
	return r.OverheadWork / r.QueryWork
}

// Completeness returns the faulted run's produced-result count as a
// fraction of a fault-free baseline run — the robustness metric the chaos
// experiments compare across policies (1 = no results lost to the fault
// schedule; 0 when the baseline produced nothing).
func Completeness(faulted, baseline *Report) float64 {
	if baseline == nil || baseline.Produced == 0 || faulted == nil {
		return 0
	}
	return faulted.Produced / baseline.Produced
}
