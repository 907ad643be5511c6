package rld

import (
	"context"
	"fmt"

	"rld/internal/engine"
	"rld/internal/netrt"
	"rld/internal/runtime"
	"rld/internal/sim"
	"rld/internal/stream"
	"rld/internal/wal"
)

// Session protocol types (internal/runtime): the long-lived streaming API
// all three substrates (simulator, in-process engine, worker processes)
// implement.
type (
	// Session is the substrate-agnostic streaming session a Pipeline
	// wraps: Ingest with backpressure, Results/Events subscriptions, live
	// Stats, policy hot-swap, and graceful Close. The live engine
	// implements it natively; the simulator implements it through a
	// virtual-time adapter, so tests drive the identical surface.
	Session = runtime.Session
	// Event is one runtime occurrence on a session's Events stream.
	Event = runtime.Event
	// EventKind classifies Events.
	EventKind = runtime.EventKind
	// ResultBatch is one sink emission on a session's Results stream.
	ResultBatch = runtime.ResultBatch
	// PipelineStats is a live snapshot of a running session's counters.
	PipelineStats = runtime.SessionStats
	// Joined is one joined result tuple (ResultBatch.Tuples elements).
	Joined = stream.Joined
)

// Event kinds surfaced on Pipeline.Events.
const (
	EventPlanSwitch = runtime.EventPlanSwitch
	EventPolicySwap = runtime.EventPolicySwap
	EventMigration  = runtime.EventMigration
	EventCrash      = runtime.EventCrash
	EventRecovery   = runtime.EventRecovery
	EventSlowdown   = runtime.EventSlowdown
	EventCheckpoint = runtime.EventCheckpoint
)

// Sentinel errors, matched with errors.Is. The session-protocol and
// control errors (internal/runtime) hold on every substrate: the simulator,
// the in-process engine and worker processes return the same ones. The
// failure classes only a live engine has come from internal/engine.
var (
	// ErrClosed reports an operation on a closed Pipeline.
	ErrClosed = runtime.ErrClosed
	// ErrBackpressure reports a TryIngest rejected at capacity.
	ErrBackpressure = runtime.ErrBackpressure
	// ErrUnknownNode reports a node index outside the cluster.
	ErrUnknownNode = runtime.ErrUnknownNode
	// ErrUnknownOp reports an operator index outside the query.
	ErrUnknownOp = runtime.ErrUnknownOp
	// ErrUnknownStream reports an ingested batch of a stream the query
	// does not name.
	ErrUnknownStream = runtime.ErrUnknownStream
	// ErrNodeDown reports an Ingest into a fully-crashed cluster (live
	// substrates only).
	ErrNodeDown = engine.ErrNodeDown
	// ErrInvalidPlan reports a plan chooser returning an invalid plan (live
	// substrates only).
	ErrInvalidPlan = engine.ErrInvalidPlan
	// ErrBadPlacement reports an incomplete or out-of-range placement.
	ErrBadPlacement = runtime.ErrBadPlacement
	// ErrWALDir reports an unusable exactly-once WAL directory.
	ErrWALDir = wal.ErrWALDir
	// ErrWALCorrupt reports a malformed write-ahead-log record. Replay
	// recovers from torn or corrupt tails on its own; this surfaces only
	// from direct record decoding.
	ErrWALCorrupt = wal.ErrWALCorrupt
)

// pipelineConfig is the resolved functional-option state.
type pipelineConfig struct {
	engine      EngineConfig
	session     runtime.SessionOptions
	havePending bool
	sim         *Scenario
	batchSize   int
	distributed bool
	distNodes   int
	workerCmd   []string
}

// Option configures Open — the functional-option replacement for filling
// EngineConfig struct literals at the public surface.
type Option func(*pipelineConfig)

// WithWorkers sets the per-node worker-goroutine count (0 = GOMAXPROCS).
// One worker also means one window per join operator, probed as one group;
// more split each window into 16 independently locked shards. It is ignored
// under WithDistributed: a worker process serves one request at a time, so
// the leader runs one router goroutine per worker process, and each worker
// process keeps one window per operator.
func WithWorkers(n int) Option { return func(c *pipelineConfig) { c.engine.Workers = n } }

// WithMaxFanout caps join results per probe (0 = unlimited).
func WithMaxFanout(n int) Option { return func(c *pipelineConfig) { c.engine.MaxFanout = n } }

// WithFaults installs a scripted fault schedule, applied as the pipeline's
// virtual clock passes each fault's edges.
func WithFaults(fp *FaultPlan) Option { return func(c *pipelineConfig) { c.session.Faults = fp } }

// WithTickEvery sets the control period in virtual seconds (default 5):
// it paces both the policy's Rebalance and the statistic monitor's samples.
func WithTickEvery(seconds float64) Option {
	return func(c *pipelineConfig) { c.session.TickEvery = seconds }
}

// WithHorizon sets the virtual-time end used to finalize fault accounting
// at Close (default: the clock's high-water mark).
func WithHorizon(seconds float64) Option {
	return func(c *pipelineConfig) { c.session.Horizon = seconds }
}

// WithBufferedResults enables the Results subscription with an n-slot
// buffer. Without it the pipeline only counts results; with it every
// non-empty sink emission is delivered (emissions beyond a full buffer are
// dropped and counted in Stats().ResultsDropped).
func WithBufferedResults(n int) Option { return func(c *pipelineConfig) { c.session.ResultBuffer = n } }

// WithBufferedEvents sets the Events subscription buffer (default 64).
func WithBufferedEvents(n int) Option { return func(c *pipelineConfig) { c.session.EventBuffer = n } }

// WithMaxPending bounds in-flight messages: Ingest blocks and TryIngest
// returns ErrBackpressure at the bound. n < 0 disables backpressure. The
// default is 1024 × nodes. Admission is concurrent, so with several
// producers the bound is approximate — each can admit one batch past it
// before observing the others. On the live substrates the producer runs a
// batch that fills the bound itself, while Results has nothing undelivered
// (when an emission waits, the producer first yields so the subscriber can
// take it): Ingest or TryIngest returns once the batch has passed every
// idle node.
func WithMaxPending(n int) Option {
	return func(c *pipelineConfig) { c.session.MaxPending = n; c.havePending = true }
}

// WithSimulation opens the pipeline on the discrete-event simulator
// instead of the live engine: the scenario supplies the cost-model truth
// (capacities, true rate/selectivity profiles), ingested batch timestamps
// drive virtual time, and batches are abstracted to their tuple counts.
// The scenario's nil query and cluster default from the deployment; the
// run length, control period and faults come from WithHorizon,
// WithTickEvery and WithFaults, as on every substrate. Replay
// sc.Arrivals(horizon) to feed the scenario's own arrival processes (sc
// must then name its query).
func WithSimulation(sc *Scenario) Option { return func(c *pipelineConfig) { c.sim = sc } }

// WithDistributed opens the pipeline on the multi-process network
// substrate: each node is a real OS worker process owning its share of
// the join windows, spoken to over a local TCP wire protocol, with the
// leader embedded in the Pipeline. n is the worker-process count; n <= 0
// means the deployment's cluster size (the policy's placement must fit
// either way). Crash is a literal SIGKILL of the node's process and
// Recover a respawn with checkpoint restore — see README "Distributed
// mode" for the failure-semantics differences from the in-process engine.
//
// The worker processes are launched by re-executing the current binary,
// so main (or TestMain) must call MaybeWorker first thing; alternatively
// point WithWorkerCommand at a dedicated worker binary (cmd/rldworker).
// Mutually exclusive with WithSimulation.
func WithDistributed(n int) Option {
	return func(c *pipelineConfig) { c.distributed = true; c.distNodes = n }
}

// WithWorkerCommand sets the argv prefix used to launch distributed-mode
// worker processes (it receives -leader, -node, and -epoch flags), e.g.
// the cmd/rldworker binary. Empty (the default) re-executes the current
// binary, which must call MaybeWorker. Implies nothing without
// WithDistributed.
func WithWorkerCommand(argv ...string) Option {
	return func(c *pipelineConfig) { c.workerCmd = argv }
}

// WithExactlyOnce turns on exactly-once durability, journaling window
// state under dir: every ingested batch is appended to a CRC-checked,
// fsync'd write-ahead log before it mutates join-window state, checkpoints
// become WAL barriers (truncating the log back to the last durable
// snapshot), and Checkpoint-mode crash recovery replays the retained
// suffix on top of the restored snapshot, deduplicating on stable per-tuple
// IDs — a crashed and recovered run produces exactly the results of a
// fault-free one. There is one log per pipeline, kept by its router in a
// subdirectory of dir it creates and removes, whether the nodes are
// goroutine pools or — in distributed mode — worker processes, which hold
// no log of their own. The simulator ignores the option (it has no real
// state to lose). Expect an ingest-throughput cost for the fsyncs; see
// BenchmarkIngestDurable.
func WithExactlyOnce(dir string) Option {
	return func(c *pipelineConfig) { c.engine.WALDir = dir }
}

// WithClassifyBatch sets the ruster size passed to the default RLD policy
// when Open is called with a nil policy (default 100, the paper's
// minimum). It changes nothing: a size ≤ 0 selects the default, and every
// positive size accounts the same per-batch classification work (see
// Deployment.ClassifyOverheadWork).
func WithClassifyBatch(n int) Option { return func(c *pipelineConfig) { c.batchSize = n } }

// Pipeline is a long-lived, context-aware streaming session over a
// compiled RLD deployment — the session-oriented public API. A Pipeline is
// running from the moment Open returns:
//
//	pipe, err := rld.Open(ctx, dep, nil, rld.WithWorkers(4), rld.WithBufferedResults(256))
//	go func() {
//		for rb := range pipe.Results() { consume(rb) }
//	}()
//	for batch := range batches {
//		if err := pipe.Ingest(ctx, batch); err != nil { ... }
//	}
//	report, err := pipe.Close(ctx)
//
// Ingest applies blocking backpressure (TryIngest is the non-blocking
// variant), Results/Events are subscriptions, Stats can be polled live,
// SwapPolicy hot-swaps the load-distribution strategy without restarting,
// and Close drains then shuts down, honoring the context's deadline. All
// methods are safe for concurrent use; on the live engine, admission from
// many producers runs in parallel — only virtual-clock edges (control
// ticks, faults, checkpoints) and control operations serialize — so one
// Pipeline's ingest throughput scales with producer count (see README
// "Performance").
type Pipeline struct {
	s runtime.Session
}

// Open starts a streaming session executing dep's query under pol (nil:
// dep's own RLD policy) — on the live sharded engine by default, or on the
// simulator's virtual-time adapter with WithSimulation, or on worker
// processes with WithDistributed. It is the one way to run: a server embeds
// the Pipeline, and Replay drives a finite feed through it.
func Open(ctx context.Context, dep *Deployment, pol Policy, opts ...Option) (*Pipeline, error) {
	if dep == nil {
		//rldlint:allow rawerror -- Open option validation, caught at call time; no sentinel to match
		return nil, fmt.Errorf("rld: Open needs a deployment")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := pipelineConfig{engine: DefaultEngineConfig()}
	for _, o := range opts {
		o(&cfg)
	}
	if pol == nil {
		bs := cfg.batchSize
		if bs <= 0 {
			bs = 100
		}
		pol = dep.NewPolicy(bs)
	}
	if cfg.sim != nil && cfg.distributed {
		//rldlint:allow rawerror -- Open option validation, caught at call time; no sentinel to match
		return nil, fmt.Errorf("rld: WithSimulation and WithDistributed are mutually exclusive")
	}
	if cfg.sim != nil {
		sc := *cfg.sim
		if sc.Query == nil {
			sc.Query = dep.Query
		}
		if sc.Cluster == nil {
			sc.Cluster = dep.Cluster
		}
		s, err := sim.OpenSession(&sc, pol, cfg.session)
		if err != nil {
			return nil, err
		}
		return &Pipeline{s: s}, nil
	}
	nNodes := dep.Cluster.N()
	if cfg.distributed && cfg.distNodes > 0 {
		nNodes = cfg.distNodes
	}
	if !cfg.havePending {
		cfg.session.MaxPending = engine.DefaultMaxPending(nNodes)
	}
	var s *engine.Session
	var err error
	if cfg.distributed {
		s, err = netrt.OpenSession(dep.Query, nNodes, pol, cfg.engine, cfg.session, cfg.workerCmd)
	} else {
		s, err = engine.OpenSession(dep.Query, nNodes, pol, cfg.engine, cfg.session)
	}
	if err != nil {
		return nil, err
	}
	return &Pipeline{s: s}, nil
}

// MaybeWorker turns this process into a distributed-mode worker if it was
// spawned as one (a WithDistributed leader re-executes its own binary with
// a worker environment variable set). It must run before anything else in
// main (or TestMain) of any binary that opens distributed pipelines
// without WithWorkerCommand; when the variable is set it serves the worker
// loop and exits, never returning. In ordinary processes it is a no-op.
func MaybeWorker() { netrt.MaybeWorker() }

// Substrate reports what executes the pipeline ("engine", "sim", or
// "net" in distributed mode).
func (p *Pipeline) Substrate() string { return p.s.Substrate() }

// Ingest admits one batch, blocking while the pipeline is at its in-flight
// capacity; the wait is event-driven, and Close or context cancellation
// wakes a blocked producer immediately. It returns ctx.Err() if the
// context ends first, ErrClosed after Close, or a typed engine error
// (ErrNodeDown, …). Batch timestamps drive the pipeline's virtual clock —
// control ticks and scripted faults fire as it advances — and must not
// decrease per producer; across concurrent producers the clock advances
// to the maximum timestamp observed. At the bound a live pipeline returns
// once the batch has passed every idle node (see WithMaxPending).
func (p *Pipeline) Ingest(ctx context.Context, b *Batch) error { return p.s.Ingest(ctx, b) }

// TryIngest admits one batch without blocking: ErrBackpressure at
// capacity, otherwise as Ingest.
func (p *Pipeline) TryIngest(b *Batch) error { return p.s.TryIngest(b) }

// Results returns the result subscription (nil unless opened with
// WithBufferedResults). The channel closes after Close completes.
func (p *Pipeline) Results() <-chan ResultBatch { return p.s.Results() }

// Events returns the runtime event stream: plan switches, policy swaps,
// migrations, crashes/recoveries, slowdowns, and checkpoint completions.
// The channel closes after Close completes.
func (p *Pipeline) Events() <-chan Event { return p.s.Events() }

// Stats returns a live snapshot of the run's counters.
func (p *Pipeline) Stats() PipelineStats { return p.s.Stats() }

// SwapPolicy hot-swaps the load-distribution policy: subsequent batches
// classify under pol and subsequent control ticks call its Rebalance. The
// live operator placement is kept — the new policy inherits it and may
// migrate from there.
func (p *Pipeline) SwapPolicy(pol Policy) error { return p.s.SwapPolicy(pol) }

// Migrate relocates one operator to another node immediately (operations
// tooling; policies normally migrate via Rebalance).
func (p *Pipeline) Migrate(op, node int) error { return p.s.Migrate(op, node) }

// Crash takes a node down exactly as a scripted fault would — chaos
// testing against a live pipeline.
func (p *Pipeline) Crash(node int) error { return p.s.Crash(node) }

// Recover brings a crashed node back, replaying parked work.
func (p *Pipeline) Recover(node int) error { return p.s.Recover(node) }

// Close drains in-flight work, shuts the pipeline down, and returns the
// final Report. When ctx ends before the drain completes, Close returns
// ctx.Err() and finishes the shutdown in the background; later Close calls
// return the stored Report.
func (p *Pipeline) Close(ctx context.Context) (*Report, error) { return p.s.Close(ctx) }

// Replay drives feed through a Session to exhaustion, closes it, and
// returns the final report — the one-shot way to run a finite feed. A
// *Pipeline is itself a Session, so rld.Replay(ctx, pipe, feed) replays a
// recorded feed through a live pipeline. The session is closed even when
// the feed is nil or ingestion fails.
func Replay(ctx context.Context, s Session, feed Feed) (*Report, error) {
	return runtime.Replay(ctx, s, feed)
}

// A Pipeline is itself a Session: the public wrapper adds nothing beyond
// doc surface and option handling at Open.
var _ Session = (*Pipeline)(nil)
