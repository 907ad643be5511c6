// Package rld is a Go implementation of Robust Load Distribution for
// distributed stream processing (Lei, Rundensteiner, Guttman — "Robust
// Distributed Stream Processing", ICDE 2013 / WPI-CS-TR-12-07).
//
// RLD compiles a continuous N-way join query plus declared statistic
// uncertainty into (1) a robust logical solution — a small set of ε-robust
// operator orderings that together cover the whole parameter space of
// possible selectivities and input rates — and (2) a single robust physical
// plan — an operator-to-machine placement that can execute any plan in the
// solution without ever migrating an operator. At runtime an online
// classifier routes each tuple batch to the currently-best logical plan.
//
// The package surface mirrors the paper's pipeline:
//
//	q := rld.NewNWayJoin("Q1", 5, 2)               // the continuous query
//	dims := []rld.Dim{
//		rld.SelDim(0, q.Ops[0].Sel, 3),            // Algorithm 1: ±Δ·U
//		rld.RateDim("S2", 2, 3),
//	}
//	cl := rld.NewCluster(4, 100)                   // homogeneous nodes
//	dep, err := rld.Optimize(q, dims, cl, rld.DefaultConfig())
//	...
//	plan, _ := dep.Classify(snapshot)              // per-batch routing
//
// Deployments execute as long-lived, context-aware streaming sessions:
// rld.Open returns a running Pipeline with blocking-backpressure Ingest,
// Results/Events subscriptions, live Stats, online policy hot-swap
// (SwapPolicy), and graceful drain-then-shutdown (Close):
//
//	pipe, _ := rld.Open(ctx, dep, nil, rld.WithWorkers(4), rld.WithBufferedResults(256))
//	for batch := range batches {
//		_ = pipe.Ingest(ctx, batch)                // blocking backpressure
//	}
//	report, _ := pipe.Close(ctx)
//
// Pipelines run on three substrates behind one policy layer
// (internal/runtime): the live sharded multi-worker dataflow engine (the
// default, used by the examples), the same engine over one worker process
// per node (rld.WithDistributed), and a discrete-event simulator
// (rld.WithSimulation, for reproducible experiments — see cmd/rldbench),
// which implements the identical session protocol through a virtual-time
// adapter. Every load-distribution strategy — RLD itself plus the ROD and
// DYN baselines of the paper's evaluation (NewROD, NewDYN) — implements
// the substrate-agnostic rld.Policy interface and runs unchanged on each
// of them. A session is the only way to run, on every substrate: a finite
// feed is replayed through one, and a scenario's own arrival processes are
// one such feed. All of them fill the shared rld.Report:
//
//	pol, _ := rld.NewROD(dep)                      // or NewDYN, dep.NewPolicy
//	pipe, _ := rld.Open(ctx, dep, pol)             // live engine
//	engRep, _ := rld.Replay(ctx, pipe, feed)
//	sim, _ := rld.Open(ctx, dep, pol, rld.WithSimulation(sc), rld.WithHorizon(1800))
//	simRep, _ := rld.Replay(ctx, sim, sc.Arrivals(1800)) // the scenario's own arrivals
package rld

import (
	"math/rand"

	"rld/internal/baseline"
	"rld/internal/chaos"
	"rld/internal/cluster"
	"rld/internal/core"
	"rld/internal/cost"
	"rld/internal/engine"
	"rld/internal/experiments"
	"rld/internal/gen"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
	"rld/internal/robust"
	"rld/internal/runtime"
	"rld/internal/sim"
	"rld/internal/stats"
	"rld/internal/stream"
)

// Query model (internal/query).
type (
	// Query is a continuous select-project-join query over streams.
	Query = query.Query
	// Operator is one algebra operator with cost/selectivity estimates.
	Operator = query.Operator
	// Plan is a logical plan: a pipelined operator ordering.
	Plan = query.Plan
	// Time is an application timestamp in seconds.
	Time = stream.Time
)

// Operator kinds.
const (
	// OpSelect is a selection / pattern-match operator.
	OpSelect = query.Select
	// OpJoin is a windowed equi-join operator.
	OpJoin = query.Join
)

// NewNWayJoin builds the paper's N-way windowed equi-join (Q1 with n=5,
// Q2 with n=10) with the calibrated Example-1-style statistics.
func NewNWayJoin(name string, n int, baseRate float64) *Query {
	return query.NewNWayJoin(name, n, baseRate)
}

// NewExample1 builds the 3-operator stock-monitoring query of Example 1.
func NewExample1() *Query { return query.NewExample1() }

// NewRandomQuery builds a random n-operator query (property tests, sweeps).
func NewRandomQuery(name string, n int, baseRate float64, rng *rand.Rand) *Query {
	return query.NewRandomQuery(name, n, baseRate, rng)
}

// Parameter space (internal/paramspace).
type (
	// Dim is one uncertain statistic: an operator selectivity or a
	// stream input rate with its Algorithm-1 bounds.
	Dim = paramspace.Dim
	// Space is the discretized multi-dimensional parameter space.
	Space = paramspace.Space
	// Point is a vector of actual statistic values.
	Point = paramspace.Point
)

// SelDim declares selectivity uncertainty for an operator (Algorithm 1).
func SelDim(op int, base float64, u int) Dim { return paramspace.SelDim(op, base, u) }

// RateDim declares input-rate uncertainty for a stream (Algorithm 1).
func RateDim(streamName string, base float64, u int) Dim {
	return paramspace.RateDim(streamName, base, u)
}

// Cluster model (internal/cluster).
type (
	// Cluster is a set of capacity-limited machines.
	Cluster = cluster.Cluster
)

// NewCluster returns a homogeneous n-node cluster with the given per-node
// capacity in cost-units/second.
func NewCluster(n int, capacity float64) *Cluster { return cluster.NewHomogeneous(n, capacity) }

// The RLD optimizer (internal/core).
type (
	// Config parameterizes the end-to-end RLD optimization.
	Config = core.Config
	// Deployment is a compiled RLD deployment: robust logical solution,
	// robust physical plan, and the online classifier.
	Deployment = core.Deployment
	// RobustConfig holds the logical-phase parameters (ε, δ, confidence).
	RobustConfig = robust.Config
	// LogicalAlgo selects the logical solution algorithm.
	LogicalAlgo = core.LogicalAlgo
	// PhysicalAlgo selects the physical planner.
	PhysicalAlgo = core.PhysicalAlgo
)

// Algorithm selectors.
const (
	LogicalERP = core.LogicalERP
	LogicalWRP = core.LogicalWRP
	LogicalES  = core.LogicalES
	LogicalRS  = core.LogicalRS

	PhysicalGreedy     = core.PhysicalGreedy
	PhysicalOptPrune   = core.PhysicalOptPrune
	PhysicalExhaustive = core.PhysicalExhaustive
)

// DefaultConfig returns the paper-default configuration (ERP + OptPrune,
// ε=0.2, 16-step grid, 2% classification budget).
func DefaultConfig() Config { return core.DefaultConfig() }

// Optimize runs the two-step RLD optimization: robust logical solution,
// then a single robust physical plan on the cluster.
func Optimize(q *Query, dims []Dim, cl *Cluster, cfg Config) (*Deployment, error) {
	return core.Optimize(q, dims, cl, cfg)
}

// Runtime statistics (internal/stats).
type (
	// Snapshot is one consistent view of monitored statistics.
	Snapshot = stats.Snapshot
)

// Unified runtime substrate (internal/runtime): policies are written once
// and executed on any substrate.
type (
	// Policy is a substrate-agnostic load-distribution strategy (RLD,
	// ROD, DYN, or custom): plan choice per batch plus placement and
	// migration decisions per control tick.
	Policy = runtime.Policy
	// Migration is one operator relocation request.
	Migration = runtime.Migration
	// StaticPolicy runs one fixed plan on one fixed placement.
	StaticPolicy = runtime.StaticPolicy
	// Report is the substrate-agnostic result every run fills.
	Report = runtime.Report
	// Feed supplies real tuple batches to Replay.
	Feed = runtime.Feed
)

// NewSourceFeed merges generator sources into a batch feed in application
// -time order, stopping at the horizon (seconds).
func NewSourceFeed(srcs []*Source, batchSize int, horizon float64) Feed {
	return runtime.NewSourceFeed(srcs, batchSize, horizon)
}

// Fault injection (internal/chaos): scripted node crashes, recoveries,
// and transient slowdowns that every substrate replays identically.
type (
	// FaultPlan is a deterministic fault schedule plus recovery
	// configuration; pass it to Open with WithFaults.
	FaultPlan = chaos.FaultPlan
	// Fault is one scripted crash or slowdown interval.
	Fault = chaos.Fault
	// RecoveryMode selects crash-recovery semantics.
	RecoveryMode = chaos.RecoveryMode
	// FaultConfig parameterizes random fault-schedule generation.
	FaultConfig = gen.FaultConfig
)

// Recovery modes and fault kinds.
const (
	// LoseState drops a crashed node's in-flight work and window state.
	LoseState = chaos.LoseState
	// CheckpointRecovery parks work for replay and restores windows from
	// the last periodic snapshot.
	CheckpointRecovery = chaos.Checkpoint
	// FaultCrash and FaultSlowdown are the fault kinds.
	FaultCrash    = chaos.Crash
	FaultSlowdown = chaos.Slowdown
)

// ParseFaultPlan reads the -faults flag syntax, e.g.
// "crash:1@120-180,slow:0@300-360x0.5;mode=checkpoint;every=30".
func ParseFaultPlan(s string) (*FaultPlan, error) { return chaos.Parse(s) }

// RandomFaults draws a deterministic random fault schedule over
// [0, horizon) for an nNodes cluster.
func RandomFaults(cfg FaultConfig, nNodes int, horizon float64, seed int64) *FaultPlan {
	return gen.Faults(cfg, nNodes, horizon, seed)
}

// DefaultFaultConfig returns a single checkpoint-recovered crash.
func DefaultFaultConfig() FaultConfig { return gen.DefaultFaultConfig() }

// Completeness returns a faulted run's produced-result count as a
// fraction of its fault-free baseline — the chaos robustness metric.
func Completeness(faulted, baseline *Report) float64 {
	return runtime.Completeness(faulted, baseline)
}

// Simulation substrate (internal/sim) and baselines (internal/baseline).
type (
	// Scenario fixes a simulated workload: true statistic trajectories,
	// cluster, and the batching of its own arrivals (Scenario.Arrivals).
	Scenario = sim.Scenario
	// DYNConfig tunes the dynamic load-distribution baseline.
	DYNConfig = baseline.DYNConfig
)

// NewROD builds the resilient-operator-distribution baseline for the
// deployment's query and space on the cluster.
func NewROD(dep *Deployment) (Policy, error) { return baseline.NewROD(dep.Ev, dep.Cluster) }

// NewDYN builds the Borealis-style dynamic load-distribution baseline.
func NewDYN(dep *Deployment, cfg DYNConfig) (Policy, error) {
	return baseline.NewDYN(dep.Ev, dep.Cluster, cfg)
}

// DefaultDYNConfig returns DYN's stock tuning. Its ActivationFloor is an
// absolute number of cost-units (50), not scaled to the cluster: size it
// to the nodes' capacity, as the §6.5 experiments do (half a node's
// capacity per second).
func DefaultDYNConfig() DYNConfig { return baseline.DefaultDYNConfig() }

// Workload generators (internal/gen).
type (
	// Profile is a time-varying rate or selectivity.
	Profile = gen.Profile
	// ConstProfile is a constant profile.
	ConstProfile = gen.ConstProfile
	// StepProfile changes value at breakpoints.
	StepProfile = gen.StepProfile
	// SquareProfile alternates between two values.
	SquareProfile = gen.SquareProfile
	// Source generates one stream's tuples.
	Source = gen.Source
	// GenConfig carries Table 2's workload defaults.
	GenConfig = gen.Config
	// KeyDist draws equi-join keys tracking a target match selectivity.
	KeyDist = gen.KeyDist
	// Dist is a sampleable value distribution for tuple payloads.
	Dist = gen.Dist
	// UniformDist is the continuous uniform distribution on [A, B).
	UniformDist = gen.Uniform
)

// NewSource returns a tuple source for one stream: Poisson arrivals at the
// rate profile, join keys from keys, payloads from values.
func NewSource(name string, rate Profile, keys KeyDist, values Dist, seed int64) *Source {
	return gen.NewSource(name, rate, keys, values, seed)
}

// DefaultGenConfig returns Table 2's defaults.
func DefaultGenConfig() GenConfig { return gen.DefaultConfig() }

// StockFeed builds the synthetic Stocks-News-Blogs-Currency sources.
func StockFeed(cfg GenConfig, regimePeriod float64, seed int64) []*Source {
	return gen.StockFeed(cfg, regimePeriod, seed)
}

// SensorFeed builds the synthetic Intel-lab-style sensor sources.
func SensorFeed(cfg GenConfig, fluctuationPeriod float64, seed int64) []*Source {
	return gen.SensorFeed(cfg, fluctuationPeriod, seed)
}

// Live engine (internal/engine).
type (
	// EngineConfig tunes the live engine.
	EngineConfig = engine.Config
	// Batch groups tuples for routing.
	Batch = stream.Batch
	// Tuple is a stream element.
	Tuple = stream.Tuple
)

// DefaultEngineConfig returns live-engine defaults.
func DefaultEngineConfig() EngineConfig { return engine.DefaultConfig() }

// AcquireBatch returns a pooled empty batch for the named stream with the
// given payload width; Release it after Ingest returns to recycle the
// columns. This is the zero-allocation producer path — Ingest copies
// everything it needs before returning.
func AcquireBatch(streamName string, width int) *Batch {
	return stream.AcquireBatch(streamName, width)
}

// Experiments (internal/experiments).
type (
	// ExperimentTable is one reproduced figure/table.
	ExperimentTable = experiments.Table
)

// Experiments lists the available experiment IDs in stable order.
func Experiments() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment reproduces one of the paper's figures/tables by ID
// ("fig10" … "fig16b", "table2", "overhead", "ablation-*"). Quick mode
// shrinks parameters for smoke testing. ok is false for unknown IDs.
func RunExperiment(id string, quick bool) (tables []*ExperimentTable, ok bool) {
	for _, e := range experiments.All() {
		if e.ID == id {
			return e.Run(quick), true
		}
	}
	return nil, false
}

// FormatTables renders experiment tables as aligned text.
func FormatTables(tables []*ExperimentTable) string { return experiments.FormatAll(tables) }

// BestPlanAt returns the cost-optimal logical plan and its cost for the
// deployment's query at a specific statistics point — the "standard query
// optimizer" the robust optimizer uses as a black box.
func BestPlanAt(dep *Deployment, pnt Point) (Plan, float64) {
	return optimizer.NewRank(dep.Ev).Best(pnt)
}

// PlanCostAt evaluates an arbitrary plan at a statistics point.
func PlanCostAt(dep *Deployment, p Plan, pnt Point) float64 {
	return dep.Ev.PlanCost(p, pnt)
}

// Evaluator exposes the cost model for advanced callers.
type Evaluator = cost.Evaluator
