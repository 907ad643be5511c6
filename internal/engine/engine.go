// Package engine is the live dataflow engine: the in-process stand-in for
// the paper's D-CAPE cluster used by the runnable examples and the
// cross-substrate conformance tests. Each simulated node runs a pool of
// worker goroutines draining one FIFO queue, and at most Workers stages at
// once: a session's producer whose batch fills its in-flight bound, and
// which would only wait for it, carries the batch — runs its stages itself
// on every idle node on its way — instead of handing it off. Batches of real
// tuples flow through selection and windowed symmetric-hash join operators
// in the order of their assigned logical plan, hopping between nodes
// according to the robust physical plan — but only to the stages that can
// change them: a batch skips a selection over a stream its rows lack and a
// join over one they already carry, which would hand it back unchanged.
// Join window state is hash-partitioned by join key across independently
// locked shards, operator statistics are lock-free atomics, and messages,
// partials slices and the blocks stage outputs are written into are pooled,
// so throughput scales with GOMAXPROCS instead of being serialized per node.
// A QueryMesh-style router assigns each batch its plan from the latest
// monitored statistics — the RLD runtime of §3, executed on real data.
//
// Nodes have a failure lifecycle (internal/chaos): Crash kills a node's
// worker pool and sweeps its queued work — parking it for replay or
// destroying it, per the recovery mode — while Recover rebuilds
// join-window state (checkpoint-restore or empty), restarts the pool, and
// replays the parked backlog; SetSlowdown stretches the node's service time.
// Crashed nodes report +Inf load so failure-aware policies can evacuate them.
//
// The Engine is the one router for every live substrate. It owns plan
// choice and interning, the statistics offers and the counters behind
// them, the per-node queue and worker pool, the pending count behind
// Drain and backpressure, the down/parked failure state and the record of
// every outage, slowdowns, the sink and its counters, and recovery: the
// checkpoint, the exactly-once write-ahead log and the restore-then-replay
// that rebuilds a node from them (durable.go). What it does not own is
// operator state: it reaches that through a Transport — in-process
// (transport.go: direct NodeCore calls) or netrt's worker processes.
package engine

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
	"rld/internal/stream"
	"rld/internal/wal"
)

// PlanChooser selects a logical plan for each batch given fresh statistics
// (a session wraps its policy's Classify in a ChooserFunc).
type PlanChooser interface {
	Choose(snap stats.Snapshot) query.Plan
}

// ChooserFunc adapts a function to PlanChooser.
type ChooserFunc func(snap stats.Snapshot) query.Plan

// Choose implements PlanChooser.
func (f ChooserFunc) Choose(snap stats.Snapshot) query.Plan { return f(snap) }

// Config tunes the engine.
type Config struct {
	// SelectThresholdScale maps operator selectivity estimates to value
	// thresholds: a Select op passes tuples with Vals[0] <
	// Sel×Scale (Uniform(0,100) payloads → Scale 100).
	SelectThresholdScale float64
	// MaxFanout caps join results per probe to bound memory under hot
	// keys (0 = unlimited).
	MaxFanout int
	// Workers is the number of worker goroutines per node draining its
	// queue (0 = GOMAXPROCS): concurrent batches on one node process in
	// parallel. It also sizes each join operator's window state: one
	// worker keeps one window per operator behind one lock, more keep 16
	// hash-partitioned shards that parallel workers lock independently.
	Workers int
	// WALDir, when non-empty, turns on exactly-once durability: the router
	// logs every window mutation to one write-ahead log in its own
	// engine-* subdirectory of this directory (fsync'd before any node,
	// goroutine or worker process, applies it) and operators deduplicate
	// inserts by tuple ID, so Checkpoint-mode recovery replays the suffix
	// past the last snapshot to Completeness == 1.0. Empty keeps the
	// allocation-free fast path (rld.WithExactlyOnce sets it).
	WALDir string
}

// DefaultConfig returns sensible example defaults.
func DefaultConfig() Config {
	return Config{SelectThresholdScale: 100, MaxFanout: 64}
}

// DefaultMaxPending is the in-flight message bound of a session over nodes
// nodes when the caller sets none: 1024 per node.
func DefaultMaxPending(nodes int) int { return 1024 * nodes }

// message is one batch at one pipeline stage.
type message struct {
	partials []*stream.Joined
	plan     query.Plan
	stage    int
	ingress  time.Time
}

var msgPool = sync.Pool{New: func() any { return new(message) }}

// resultObserver is the sink tap; SetResultObserver states its contract.
type resultObserver func(tuples []*stream.Joined, ingress time.Time)

// nodeState is one simulated node of the live engine: its queue, worker
// pool, and failure state. The worker pool is genuinely killed on Crash
// (goroutines exit) and rebuilt on Recover.
type nodeState struct {
	mu sync.Mutex // guards the queue and failure state below
	// ready wakes workers parked in take: signalled per enqueue, broadcast
	// when the pool is retired.
	ready sync.Cond
	// gen counts the node's incarnations: Recover bumps it, and a failure
	// report carries the gen it observed, so a stale one — about the
	// incarnation that already died — cannot take down its successor.
	gen uint64 //rldlint:guardedby mu
	// down marks a crashed node: its pool is dead, its queued work has
	// been reaped (parked for replay in Checkpoint mode, dropped in
	// LoseState), and sends park or lose directly. The down check and the
	// enqueue happen in one critical section, and MarkDown sweeps the queue
	// in the one that sets down, so no message can slip into the queue after
	// the sweep or park ahead of it.
	down bool               //rldlint:guardedby mu
	mode chaos.RecoveryMode //rldlint:guardedby mu
	// parked holds messages awaiting replay on recovery.
	parked []*message //rldlint:guardedby mu
	// queue is the node's one FIFO, unbounded here (sessions bound total
	// in-flight messages via MaxPending): senders append at the tail,
	// workers take from the head, so goroutine count stays flat under
	// sustained overload and per-stage arrival order holds from send to
	// process. Entries [head:len) are live.
	queue []*message //rldlint:guardedby mu
	head  int        //rldlint:guardedby mu
	// busy counts the stages in service, by pool workers or carriers (send).
	busy int //rldlint:guardedby mu
	// pool numbers the worker pool allowed to take from the queue: MarkDown
	// and Stop bump it, which retires every worker started under the old
	// number; wg tracks the pool's membership.
	pool uint64 //rldlint:guardedby mu
	wg   sync.WaitGroup
	// slow is the current capacity factor in (0, 1], as float64 bits.
	slow atomic.Uint64
	// downAt is the virtual time the current outage began; downFor sums
	// the lengths of the finished ones. They are the run's only outage
	// record, whoever took the node down. (Last, so the hot fields above
	// keep their cache-line placement.)
	downAt  float64 //rldlint:guardedby mu
	downFor float64 //rldlint:guardedby mu
}

// push appends msg to the queue. Taking only advances head, so once the
// taken prefix is at least half of a full array it is compacted away
// instead of the array grown: the array stays O(peak depth) even under a
// queue that never fully drains. Caller holds ns.mu.
func (ns *nodeState) push(msg *message) {
	if len(ns.queue) == cap(ns.queue) && ns.head*2 >= len(ns.queue) {
		n := copy(ns.queue, ns.queue[ns.head:])
		clear(ns.queue[n:])
		ns.queue, ns.head = ns.queue[:n], 0
	}
	ns.queue = append(ns.queue, msg)
}

// take blocks until the queue has a message and fewer than workers stages
// are in service (busy), then takes both; or it returns nil once the given
// pool is retired — a retired worker takes nothing more, whatever is queued.
// served first gives back the slot of the worker's last message.
func (ns *nodeState) take(pool uint64, workers int, served bool) *message {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if served {
		ns.busy--
	}
	for ns.pool == pool && (ns.head == len(ns.queue) || ns.busy >= workers) {
		ns.ready.Wait()
	}
	if ns.pool != pool {
		return nil
	}
	ns.busy++
	msg := ns.queue[ns.head]
	ns.queue[ns.head] = nil
	ns.head++
	return msg
}

// Engine executes one continuous query across simulated nodes.
type Engine struct {
	q       *query.Query
	chooser PlanChooser
	cfg     Config
	monitor *stats.Monitor

	// route is the live routing table. Reads are lock-free; Migrate swaps
	// in the next version (single logical writer: the control loop).
	route atomic.Pointer[routing]

	nodes []*nodeState
	// core is the query's operator metadata — the join schema whose blocks
	// result tuples are built in, the normalized config — and the run's
	// only selectivity counters, whichever transport ran the stages. In the
	// in-process engine it also holds every operator's window state, which
	// the router touches only through t.
	core *NodeCore
	// t reaches operator state: window inserts, stage execution, one
	// operator's snapshot and restore, and a node's death and restart.
	t Transport

	// snaps is the checkpoint: each operator's window contents as of the
	// latest Checkpoint that could pull them (nil until the first).
	snaps atomic.Pointer[[]*stream.Batch]
	// wlog is the exactly-once write-ahead log (nil without Config.WALDir),
	// set once at construction. walMu orders logged inserts against the
	// checkpoint and recovery: insert holds the read side across its
	// append + fsync and the window inserts the record covers, Checkpoint
	// the write side across snapshot + barrier + truncate, and revive the
	// write side across restore + replay — so every logged insert is either
	// inside the snapshot a barrier follows or retained after it, and either
	// attempted before a replay reads the log or delivered to the restarted
	// node after it; never split.
	wlog  *wal.Log
	walMu sync.RWMutex
	// walDir is this engine's own subdirectory of Config.WALDir. Nothing
	// reopens it — the log bridges a node's crash, within one engine's
	// life — so Stop removes it with the log.
	walDir string

	pending     atomic.Int64   // in-flight messages, for Drain/backpressure
	nodeQueued  []atomic.Int64 // per-node queued+in-service messages
	produced    atomic.Int64
	latencyNano atomic.Int64 // summed batch ingress→sink latency
	lost        atomic.Int64 // partial results destroyed by faults
	restores    atomic.Int64 // checkpoint-restores on recovery
	crashes     atomic.Int64 // outages begun, injected or detected
	downCount   atomic.Int32 // nodes currently down, for the all-down check

	// resultObs, when set, taps every non-empty sink emission (sessions
	// subscribe result streams through it).
	resultObs atomic.Pointer[resultObserver]
	// out, when set, is the session's outbox: Ingest emits each plan switch
	// into it as it counts the switch, under mu, and markDown and recoverAt
	// each outage edge under the node's lock. It is atomic because a
	// transport's failure detection runs before the session exists.
	out atomic.Pointer[runtime.Outbox]

	// lastAppTs is the float64 bit pattern of the highest batch timestamp
	// ingested so far: the clock that stamps monitor offers and a session's
	// virtual clock. App time keeps the stats timeline on the data's own
	// axis instead of tying it to host speed.
	lastAppTs atomic.Uint64

	// waitList/waitMu/waiters implement the event-driven pending-count
	// notifier: every decrement of pending hands a token to each
	// registered waiter's channel when someone is waiting, so Drain and
	// backpressured producers block on a channel instead of polling. The
	// channels are the waiters' own and recycled through wakeChans, so a
	// producer that waits out every batch (depth 1) allocates nothing. The
	// waiters gate keeps the workers' hot path at one atomic load when
	// nobody waits.
	waitMu   sync.Mutex
	waitList []chan struct{} //rldlint:guardedby waitMu
	waiters  atomic.Int32

	// sendMu fences Ingest against Stop: Ingest holds the read side for
	// its whole body, and Stop takes the write side after setting the
	// stopped flag, so no Ingest can be between its stopped-check and
	// its send when the pools retire.
	sendMu sync.RWMutex

	// stopDone closes when shutdown fully completes, so a Stop racing
	// another Stop returns fully-drained results.
	stopDone chan struct{}

	mu       sync.Mutex       // guards the ingest-side state below
	ingested int64            //rldlint:guardedby mu
	batches  int64            //rldlint:guardedby mu
	planUse  map[string]int64 //rldlint:guardedby mu
	switches int              //rldlint:guardedby mu
	lastKey  string           //rldlint:guardedby mu
	started  bool             //rldlint:guardedby mu
	stopped  bool             //rldlint:guardedby mu
	// plans interns each distinct plan the chooser has returned: the
	// canonical clone plus its precomputed key, so recurring plans skip
	// the per-batch Clone/Valid/Key allocations. Bounded by maxInterned.
	plans []internedPlan //rldlint:guardedby mu
}

// routing is one version of the routing table: where every operator runs
// and, worked out from that once per version, where a stream's rows go.
type routing struct {
	assign physical.Assignment
	// inserts holds, per stream slot of the join schema and per node, the
	// join operators over that stream the node hosts (none on most).
	inserts [][][]int
}

func (e *Engine) newRouting(assign physical.Assignment) *routing {
	r := &routing{assign: assign, inserts: make([][][]int, e.core.schema.Len())}
	for op, node := range assign {
		if o := e.q.Ops[op]; o.Kind == query.Join {
			slot := e.core.schema.Slot(o.Stream)
			if r.inserts[slot] == nil {
				r.inserts[slot] = make([][]int, len(e.nodes))
			}
			r.inserts[slot][node] = append(r.inserts[slot][node], op)
		}
	}
	return r
}

// internedPlan is one cached, validated plan and its routing key.
type internedPlan struct {
	plan query.Plan
	key  string
}

// maxInterned caps the plan cache; a chooser cycling through more distinct
// plans than this falls back to the uncached path.
const maxInterned = 1024

// internPlan returns the canonical copy and key of plan, validating and
// caching it on first sight. ok is false for an invalid plan.
func (e *Engine) internPlan(plan query.Plan) (internedPlan, bool) {
	e.mu.Lock()
	for i := range e.plans {
		if e.plans[i].plan.Equal(plan) {
			ip := e.plans[i]
			e.mu.Unlock()
			return ip, true
		}
	}
	e.mu.Unlock()
	if plan == nil || !plan.Valid(e.q) {
		return internedPlan{}, false
	}
	ip := internedPlan{plan: plan.Clone(), key: plan.Key()}
	e.mu.Lock()
	if len(e.plans) < maxInterned {
		e.plans = append(e.plans, ip)
	}
	e.mu.Unlock()
	return ip, true
}

// New builds an in-process engine for query q with operator placement
// assign over nNodes nodes.
func New(q *query.Query, assign physical.Assignment, nNodes int, chooser PlanChooser, cfg Config) (*Engine, error) {
	core, err := NewNodeCore(q, cfg)
	if err != nil {
		return nil, err
	}
	return NewOn(core, localTransport{core}, assign, nNodes, chooser)
}

// NewOn builds the router over a caller-supplied transport: netrt hands in
// its worker-process cluster (and a NodeCore it never inserts into, for the
// schema and normalized config). The pool size per node is
// core.Config().Workers. With core.Config().WALDir set the router holds an
// open write-ahead log from here until Stop, so a caller that fails after
// NewOn must Stop the engine it got.
func NewOn(core *NodeCore, t Transport, assign physical.Assignment, nNodes int, chooser PlanChooser) (*Engine, error) {
	if err := checkPlacement(core.q, assign, nNodes); err != nil {
		return nil, err
	}
	q, cfg := core.q, core.cfg
	// Until the first offer the monitor publishes the query's compile-time
	// estimates, which is what fresh counters observe.
	e := &Engine{
		q:          q,
		chooser:    chooser,
		cfg:        cfg,
		core:       core,
		t:          t,
		monitor:    stats.NewMonitor(0.5, stats.Snapshot{Sels: core.ObservedSels(), Rates: maps.Clone(q.Rates)}),
		planUse:    make(map[string]int64),
		nodeQueued: make([]atomic.Int64, nNodes),
		stopDone:   make(chan struct{}),
	}
	for i := 0; i < nNodes; i++ {
		ns := &nodeState{}
		ns.ready.L = &ns.mu
		ns.slow.Store(math.Float64bits(1))
		e.nodes = append(e.nodes, ns)
	}
	e.route.Store(e.newRouting(assign.Clone()))
	// Last, so nothing can fail with the log open.
	if cfg.WALDir != "" {
		if err := e.openLog(cfg.WALDir); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// checkPlacement rejects an assignment that does not place every operator
// of q on one of nNodes nodes.
func checkPlacement(q *query.Query, assign physical.Assignment, nNodes int) error {
	if !assign.Complete() || len(assign) != len(q.Ops) {
		return fmt.Errorf("%w: incomplete", runtime.ErrBadPlacement)
	}
	for _, n := range assign {
		if n < 0 || n >= nNodes {
			return fmt.Errorf("%w: references node %d of %d", runtime.ErrBadPlacement, n, nNodes)
		}
	}
	return nil
}

// Start launches the per-node worker pools.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	for i := range e.nodes {
		e.startPool(i)
	}
}

// startPool spawns node i's worker pool under its current pool number and
// incarnation. Both are the pool's own for life — a later pool number
// retires it, a later gen belongs to its successor — so one locked snapshot
// covers every worker's whole loop.
func (e *Engine) startPool(i int) {
	ns := e.nodes[i]
	ns.mu.Lock()
	pool, gen := ns.pool, ns.gen
	ns.mu.Unlock()
	for w := 0; w < e.cfg.Workers; w++ {
		ns.wg.Add(1)
		// Fixed-size pool of cfg.Workers; each worker parks in
		// sync.Cond.Wait and exits when take returns nil.
		go e.worker(i, pool, gen)
	}
}

func (e *Engine) worker(id int, pool, gen uint64) {
	ns := e.nodes[id]
	defer ns.wg.Done()
	for msg := ns.take(pool, e.cfg.Workers, false); msg != nil; msg = ns.take(pool, e.cfg.Workers, true) {
		e.send(e.process(id, gen, msg), false)
		e.nodeQueued[id].Add(-1)
		e.pending.Add(-1)
		e.wakePending()
	}
}

// wakeChans recycles the one-token channels AwaitPending waits on.
var wakeChans = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// wakePending wakes everyone blocked in AwaitPending after a pending-count
// decrement. When nobody waits (the steady state) it is one atomic load.
// A producer never waits for a batch it carries (see carry).
//
// Every decrement wakes every waiter, even one still at or above its limit,
// on purpose. Waking a producer only below its limit saves most producer
// wakes at depth 1, but at GOMAXPROCS 1 it starved the result subscriber:
// the runnext hand-off chain between workers and producer never left the
// run queue empty. Measured on the engine_join and engine_ingest benchmark
// workloads: a mean of 281 and 1 197 emissions queued for the subscriber
// (up to 3 424 of 8 192) against none, and engine_join 1–9 % slower.
func (e *Engine) wakePending() {
	if e.waiters.Load() == 0 {
		return
	}
	e.waitMu.Lock()
	for _, ch := range e.waitList {
		ch <- struct{}{} // never blocks: one token per registration
	}
	e.waitList = e.waitList[:0]
	e.waitMu.Unlock()
}

// AwaitPending blocks until fewer than limit messages are in flight
// (limit ≤ 1: until fully drained), the context ends, or closed closes —
// returning nil, ctx.Err(), or runtime.ErrClosed respectively. Wakeups are
// edge-triggered from the worker and markDown paths via wakePending, which
// wakes the waiter on every decrement, not only below limit (see there for
// why); the register-then-recheck order makes the wait lose no wakeup.
func (e *Engine) AwaitPending(ctx context.Context, limit int64, closed <-chan struct{}) error {
	if limit < 1 {
		limit = 1
	}
	if e.pending.Load() < limit {
		return nil
	}
	e.waiters.Add(1)
	defer e.waiters.Add(-1)
	ch := wakeChans.Get().(chan struct{})
	// Every exit leaves ch unregistered and empty, so the next user of the
	// recycled channel starts clean.
	defer wakeChans.Put(ch)
	for e.pending.Load() >= limit {
		e.waitMu.Lock()
		e.waitList = append(e.waitList, ch)
		e.waitMu.Unlock()
		if e.pending.Load() < limit {
			e.unregister(ch)
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			e.unregister(ch)
			return ctx.Err()
		case <-closed:
			e.unregister(ch)
			return runtime.ErrClosed
		}
	}
	return nil
}

// unregister withdraws a waiter that stopped waiting before its wakeup: it
// leaves the list, or — a wakePending got there first — returns the token.
func (e *Engine) unregister(ch chan struct{}) {
	e.waitMu.Lock()
	for i, c := range e.waitList {
		if c == ch {
			last := len(e.waitList) - 1
			e.waitList[i] = e.waitList[last]
			e.waitList = e.waitList[:last]
			e.waitMu.Unlock()
			return
		}
	}
	e.waitMu.Unlock()
	<-ch
}

// send routes a message to the node hosting its next stage that can change
// it. First it advances msg.stage past every stage that would hand the
// message back unchanged (NodeCore.passesThrough): a select over a stream
// its rows lack, a join over one they already carry. A message with no rows
// or no stage left is sunk on the spot — for an empty batch, or one whose
// every stage passes it through, on the producer's goroutine inside Ingest.
// So a skipped stage costs no hand-off and no round trip, and its node's
// state does not matter: a batch that only passes through a crashed node's
// operators neither parks there nor is lost.
//
// Otherwise send never blocks — a worker forwarding to its own node would
// deadlock the pipeline — the queue simply grows; Drain accounts for every
// queued message via the pending counter. Messages routed to a crashed node
// are parked for replay on recovery (Checkpoint mode) or destroyed
// (LoseState); parked messages leave the pending count so Drain does not
// wait out an outage. The down check and the enqueue share one ns.mu
// critical section, so a send can never race a crash into a swept queue.
//
// With carry set, the calling goroutine runs the stage itself when the node
// is up, has nothing queued and has a worker slot free, holding the slot as
// a pool worker does (busy, nodeQueued, the pool's wait group), and routes
// the message on the same way; the first node not idle gets it as above.
func (e *Engine) send(msg *message, carry bool) {
	for msg != nil {
		for len(msg.partials) > 0 && msg.stage < len(msg.plan) && e.core.passesThrough(msg.plan[msg.stage], msg.partials[0]) {
			msg.stage++
		}
		if len(msg.partials) == 0 || msg.stage == len(msg.plan) {
			e.sink(msg)
			return
		}
		node := e.route.Load().assign[msg.plan[msg.stage]]
		ns := e.nodes[node]
		ns.mu.Lock()
		if ns.down {
			if ns.mode == chaos.Checkpoint {
				ns.parked = append(ns.parked, msg)
				ns.mu.Unlock()
				return
			}
			ns.mu.Unlock()
			e.lose(msg)
			return
		}
		if !carry || ns.head < len(ns.queue) || ns.busy >= e.cfg.Workers {
			e.pending.Add(1)
			e.nodeQueued[node].Add(1)
			ns.push(msg)
			ns.mu.Unlock()
			ns.ready.Signal()
			return
		}
		ns.busy++
		ns.wg.Add(1)
		gen := ns.gen
		ns.mu.Unlock()
		e.nodeQueued[node].Add(1)
		msg = e.process(node, gen, msg)
		e.nodeQueued[node].Add(-1)
		ns.mu.Lock()
		if ns.busy--; ns.head < len(ns.queue) {
			ns.ready.Signal()
		}
		ns.mu.Unlock()
		ns.wg.Done()
	}
}

// carry runs msg, which admit counted in pending, on the calling goroutine
// through every idle node on its way (send). That one count covers it until
// the carry ends, so Drain and Stop wait for it.
func (e *Engine) carry(msg *message) {
	e.send(msg, true)
	e.pending.Add(-1)
	e.wakePending()
}

// lose destroys a message routed to (or stranded on) a dead node,
// accounting its in-flight partial results as lost tuples.
func (e *Engine) lose(msg *message) {
	e.lost.Add(int64(len(msg.partials)))
	for _, p := range msg.partials {
		p.Release()
	}
	putPartials(msg.partials)
	*msg = message{}
	msgPool.Put(msg)
}

// process executes one stage on node (incarnation gen) and returns the
// message at its next stage, for its worker or carrier to route on (send).
// The stage runs behind the transport; process owns only the fate of a hop
// whose node died under it: the node goes down, and the message — its
// partials still whole — goes back ahead of the backlog the outage parked,
// or is routed again (repark; Recover waits out the pool and any carrier
// first, so the node stays down until then), and process returns nil, which
// send takes as nothing to route. Only the stages send did not skip reach a
// node, so only they can park or be lost with it.
//
// A slowed node (SetSlowdown) runs at factor × capacity, which is the
// simulator's definition — service time divided by the factor — on every
// transport: the stage's measured time is stretched by (1−f)/f.
func (e *Engine) process(node int, gen uint64, msg *message) *message {
	op := msg.plan[msg.stage]
	ns := e.nodes[node]
	slow := math.Float64frombits(ns.slow.Load())
	var start time.Time
	if slow < 1 {
		start = time.Now() //rldlint:allow wallclock -- slowdown emulation stretches real service time
	}
	out, err := e.t.RunStage(node, op, msg.partials)
	if err != nil {
		e.MarkDown(node, gen, chaos.Checkpoint)
		e.repark(node, msg)
		return nil
	}
	msg.partials = out
	if slow < 1 {
		time.Sleep(time.Duration(float64(time.Since(start)) * (1 - slow) / slow)) //rldlint:allow wallclock -- slowdown emulation stretches real service time
	}
	msg.stage++
	return msg
}

// repark returns a hop whose node died under it to the head of the node's
// parked backlog when the node is down in checkpoint mode and still hosts
// the operator: the hop was taken from the queue ahead of everything the
// outage swept, so it replays first. Otherwise it is routed again, which
// destroys it on a node down under LoseState and follows a migration.
func (e *Engine) repark(node int, msg *message) {
	ns := e.nodes[node]
	ns.mu.Lock()
	if ns.down && ns.mode == chaos.Checkpoint && e.route.Load().assign[msg.plan[msg.stage]] == node {
		ns.parked = slices.Insert(ns.parked, 0, msg)
		ns.mu.Unlock()
		return
	}
	ns.mu.Unlock()
	e.send(msg, false)
}

func (e *Engine) sink(msg *message) {
	e.produced.Add(int64(len(msg.partials)))
	e.latencyNano.Add(int64(time.Since(msg.ingress))) //rldlint:allow wallclock -- batch latency is a host-side wall metric, not simulated time
	if obs := e.resultObs.Load(); obs != nil && len(msg.partials) > 0 {
		(*obs)(msg.partials, msg.ingress)
	}
	for _, p := range msg.partials {
		p.Release()
	}
	putPartials(msg.partials)
	*msg = message{}
	msgPool.Put(msg)
}

// SetResultObserver installs (or, with nil, removes) the sink tap: obs is
// invoked on worker goroutines with every non-empty sink emission — the
// batch's surviving result tuples and its ingress wall time. The slice and
// the tuples are the engine's: the sink releases both when obs returns, so
// whatever obs keeps must leave through stream.Detach — which copies the
// tuples out, or, when they are the last stage's whole block, takes the block
// out of the engine's circulation instead (the sink's releases then do
// nothing). Install before Start to observe every result.
func (e *Engine) SetResultObserver(obs func(tuples []*stream.Joined, ingress time.Time)) {
	if obs == nil {
		e.resultObs.Store(nil)
		return
	}
	o := resultObserver(obs)
	e.resultObs.Store(&o)
}

// Ingest admits one batch of tuples from a single stream: the batch is
// classified to a plan, its tuples are inserted into their stream's windows
// and counted, and the pipeline begins. Ingest never blocks: the
// node queues are unbounded (see send), so callers that outrun the workers
// must pace themselves via Drain — sessions enforce an in-flight bound on
// top of this. Failures are typed: ErrNotStarted before
// Start, ErrStopped after Stop, ErrNodeDown when every node is crashed,
// runtime.ErrUnknownStream for a stream the query does not name, and
// ErrInvalidPlan for a misbehaving chooser; all leave no trace, so the same
// batch can be retried. Safe for concurrent use. Ingest never carries.
func (e *Engine) Ingest(b *stream.Batch) error {
	_, err := e.admit(b, false)
	return err
}

// admit is Ingest. With carry set it counts the message in pending under
// sendMu, so Stop's Drain waits for it, and returns it for the caller to
// carry once it has let go of its own locks.
func (e *Engine) admit(b *stream.Batch, carry bool) (*message, error) {
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		return nil, ErrNotStarted
	}
	if e.stopped {
		e.mu.Unlock()
		return nil, ErrStopped
	}
	e.mu.Unlock()
	if n := len(e.nodes); int(e.downCount.Load()) >= n {
		return nil, fmt.Errorf("%w: all %d nodes crashed", ErrNodeDown, n)
	}

	// Classify and validate BEFORE mutating any state: a failed Ingest
	// must leave no trace (no counters, no window inserts), so callers can
	// safely retry the same batch. The chooser sees the snapshot the last
	// control tick offered.
	slot := e.core.schema.Slot(b.Stream)
	if slot < 0 {
		return nil, fmt.Errorf("%w: %q", runtime.ErrUnknownStream, b.Stream)
	}
	plan := e.chooser.Choose(e.monitor.Snapshot())
	ip, ok := e.internPlan(plan)
	if !ok {
		return nil, fmt.Errorf("%w: chooser returned %v", ErrInvalidPlan, plan)
	}
	// Window inserts come before any accounting for the same reason: a
	// batch the log cannot take leaves nothing to undo.
	if err := e.insert(b, slot); err != nil {
		return nil, err
	}

	e.advanceAppTime(float64(b.MaxTs()))

	k := ip.key
	n := b.Len()
	e.core.admitted[slot].Add(int64(n))
	e.mu.Lock()
	e.ingested += int64(n)
	e.batches++
	e.planUse[k]++
	if k != e.lastKey {
		if e.lastKey != "" {
			e.switches++
			e.out.Load().Emit(runtime.Event{Kind: runtime.EventPlanSwitch, T: e.appTime(), Node: -1, Op: -1, Plan: k})
		}
		e.lastKey = k
	}
	e.mu.Unlock()

	// Seed one singleton partial per tuple, all in one block, in one pass
	// over the batch's columns; they are copied, so the caller may reuse or
	// Release b once Ingest returns.
	partials := getPartials()
	if n > 0 {
		partials = e.core.schema.AcquireBlock(n, n*b.Width()).SeedRows(partials, slot, b)
	}
	msg := msgPool.Get().(*message)
	*msg = message{
		partials: partials,
		// The interned canonical plan is shared across messages; the
		// engine never mutates msg.plan.
		plan:    ip.plan,
		ingress: time.Now(), //rldlint:allow wallclock -- ingress stamp feeds the wall-latency metric above
	}
	if carry {
		e.pending.Add(1)
		return msg, nil
	}
	e.send(msg, false)
	return nil, nil
}

// offerStats offers the monitor the router's counters: every operator's
// observed selectivity and every stream's admitted tuples. The session's
// control tick calls it right after its Drain, so the counters are settled,
// and Stop once more for the fully processed run; nothing else does. The
// offer is stamped with the app-time high-water mark, so the stats timeline
// matches the simulator's instead of diverging with host speed.
func (e *Engine) offerStats() {
	e.monitor.Offer(e.appTime(), e.core.ObservedSels(), e.core.ObservedRates())
}

// appTime reads the app-time high-water mark.
func (e *Engine) appTime() float64 { return math.Float64frombits(e.lastAppTs.Load()) }

// advanceAppTime CAS-maxes the app-time high-water mark to ts. Non-positive
// timestamps are ignored (MaxTs of an empty batch is 0; a negative float's
// bit pattern would not order as uint64), so the bit patterns compared below
// order the same as the floats themselves.
func (e *Engine) advanceAppTime(ts float64) {
	if ts <= 0 {
		return
	}
	bits := math.Float64bits(ts)
	for {
		cur := e.lastAppTs.Load()
		if bits <= cur || e.lastAppTs.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// controlReady rejects control operations (Migrate/Crash/Recover/
// SetSlowdown) on a stopped engine: the worker pools and the transport are
// gone.
func (e *Engine) controlReady() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return ErrStopped
	}
	return nil
}

// Pending returns the number of in-flight messages not yet sunk — the
// quantity sessions bound for backpressure (parked messages on crashed
// nodes are excluded, as in Drain).
func (e *Engine) Pending() int64 { return e.pending.Load() }

// Assignment returns a copy of the live routing table.
func (e *Engine) Assignment() physical.Assignment {
	return e.route.Load().assign.Clone()
}

// Nodes returns the cluster size.
func (e *Engine) Nodes() int { return len(e.nodes) }

// SetChooser installs the per-batch plan chooser. It must be called before
// Start (sessions install their policy-backed chooser between New and
// Start); there is no synchronization against concurrent Ingest.
func (e *Engine) SetChooser(c PlanChooser) { e.chooser = c }

// Migrate reroutes one operator to another node: the transport carries its
// state across, then the routing table is swapped. In process the state is
// shared memory, so the "migration" is instantaneous — there is no
// suspension window; DYN-style policies still account their modeled
// downtime in reports. Between worker processes the window state is
// shipped, and hops already queued to the old node still execute there
// against its (now stale, but intact) copy. Migrate must be called from a
// single control goroutine.
func (e *Engine) Migrate(op, node int) error {
	if err := e.controlReady(); err != nil {
		return err
	}
	cur := e.route.Load().assign
	if op < 0 || op >= len(cur) {
		return fmt.Errorf("%w: migrate op %d", runtime.ErrUnknownOp, op)
	}
	if node < 0 || node >= len(e.nodes) {
		return fmt.Errorf("%w: migrate to node %d", runtime.ErrUnknownNode, node)
	}
	if cur[op] == node {
		return nil
	}
	if err := e.t.MoveOp(op, cur[op], node); err != nil {
		// The old host is down and took the state with it: the checkpoint's
		// copy is the best there is. A target that cannot take it is marked
		// down by the transport and rebuilt whole at its Recover.
		if snaps := e.snaps.Load(); snaps != nil && (*snaps)[op] != nil {
			_ = e.t.RestoreOp(node, op, (*snaps)[op])
		}
	}
	next := cur.Clone()
	next[op] = node
	e.route.Store(e.newRouting(next))
	return nil
}

// Crash takes a node down now (see MarkDown) under the given recovery mode.
// Crashing a crashed node is a no-op. Crash must be called from the control
// goroutine (like Migrate).
func (e *Engine) Crash(node int, mode chaos.RecoveryMode) error {
	return e.crashAt(node, mode, e.appTime())
}

// crashAt is Crash with the outage beginning at virtual time t, a scripted
// edge's own time.
func (e *Engine) crashAt(node int, mode chaos.RecoveryMode, t float64) error {
	if err := e.controlReady(); err != nil {
		return err
	}
	if node < 0 || node >= len(e.nodes) {
		return fmt.Errorf("%w: crash node %d", runtime.ErrUnknownNode, node)
	}
	ns := e.nodes[node]
	ns.mu.Lock()
	gen := ns.gen
	ns.mu.Unlock()
	e.markDown(node, gen, mode, t)
	return nil
}

// MarkDown takes node down if it is still incarnation gen and still up:
// its worker pool is retired (the goroutines exit after finishing their
// in-flight batch — the crash boundary is the queue), the transport
// kills whatever executed its stages, and everything queued or subsequently
// routed to it is swept: parked for replay on recovery under
// chaos.Checkpoint, destroyed and counted as lost under chaos.LoseState.
// It is the one way a node goes down, for Crash and for a node that fails
// on its own — a worker whose stage died under it, a transport's heartbeat
// or process reaper — so it is safe from any goroutine and never waits for
// the pool: the caller may be in it. Recover and Stop wait it out. Every
// outage it begins is booked alike: one crash, one EventCrash, and down
// time from now until its Recover.
func (e *Engine) MarkDown(node int, gen uint64, mode chaos.RecoveryMode) {
	e.markDown(node, gen, mode, e.appTime())
}

// markDown is MarkDown with the outage beginning at virtual time t. The
// queue is swept — its backlog parked for replay (Checkpoint mode) or
// destroyed (LoseState), in arrival order — in the critical section that
// sets down, so a send that finds the node down parks behind the backlog,
// never ahead of it. The pending count drops by the backlog, so Drain never
// waits on a dead node.
func (e *Engine) markDown(node int, gen uint64, mode chaos.RecoveryMode, t float64) {
	ns := e.nodes[node]
	ns.mu.Lock()
	if ns.down || ns.gen != gen {
		ns.mu.Unlock()
		return
	}
	ns.down = true
	ns.mode = mode
	ns.pool++
	ns.downAt = t
	e.crashes.Add(1)
	e.out.Load().Emit(runtime.Event{Kind: runtime.EventCrash, T: t, Node: node, Op: -1})
	backlog := ns.queue[ns.head:]
	ns.queue, ns.head = nil, 0
	park := mode == chaos.Checkpoint
	if park {
		ns.parked = append(ns.parked, backlog...)
	}
	ns.mu.Unlock()
	ns.ready.Broadcast()
	e.downCount.Add(1)
	e.t.Kill(node)
	e.nodeQueued[node].Add(-int64(len(backlog)))
	e.pending.Add(-int64(len(backlog)))
	if !park {
		for _, msg := range backlog {
			e.lose(msg)
		}
	}
	e.wakePending()
}

// Recover brings a crashed node back: the transport restarts whatever
// executes its stages, the join-window state of the operators it hosts is
// rebuilt (see revive: restored from the last Checkpoint under
// chaos.Checkpoint — tuples newer than the snapshot are lost unless the
// write-ahead log covers them — or empty under chaos.LoseState), a fresh
// worker pool is started, and parked messages are replayed through the
// current routing table (so they follow any migrations made during the
// outage). Recovering a live node is a no-op; a failed revival leaves the
// node down.
func (e *Engine) Recover(node int) error {
	return e.recoverAt(node, e.appTime())
}

// recoverAt is Recover with the outage ending at virtual time t.
func (e *Engine) recoverAt(node int, t float64) error {
	if err := e.controlReady(); err != nil {
		return err
	}
	if node < 0 || node >= len(e.nodes) {
		return fmt.Errorf("%w: recover node %d", runtime.ErrUnknownNode, node)
	}
	ns := e.nodes[node]
	ns.mu.Lock()
	if !ns.down {
		ns.mu.Unlock()
		return nil
	}
	mode := ns.mode
	ns.gen++
	gen := ns.gen
	ns.mu.Unlock()
	// The dead pool has parked or destroyed whatever it still held once
	// its last worker exits.
	ns.wg.Wait()
	restored, err := e.revive(node, gen, mode)
	if err != nil {
		return err
	}
	e.restores.Add(int64(restored))
	// Fresh pool under the number MarkDown left, which no worker of the
	// old pool holds; any slowdown still in effect applies to it as is.
	e.startPool(node)
	// Flip live and requeue the parked backlog in one critical section: what
	// is still routed here goes to the queue ahead of any later send, and
	// only what migrated away during the outage is sent on after it.
	ns.mu.Lock()
	ns.down = false
	ns.downFor += t - ns.downAt
	e.out.Load().Emit(runtime.Event{Kind: runtime.EventRecovery, T: t, Node: node, Op: -1})
	e.downCount.Add(-1)
	assign := e.route.Load().assign
	away := ns.parked[:0]
	for _, m := range ns.parked {
		if assign[m.plan[m.stage]] != node {
			away = append(away, m)
			continue
		}
		e.pending.Add(1)
		e.nodeQueued[node].Add(1)
		ns.push(m)
	}
	ns.parked = nil
	ns.mu.Unlock()
	ns.ready.Broadcast()
	for _, m := range away {
		e.send(m, false)
	}
	return nil
}

// SetSlowdown runs a node at the given capacity factor in (0, 1] by
// stretching the service time of every stage it executes (see process);
// factor 1 restores full speed. A down node keeps the factor for its next
// incarnation.
func (e *Engine) SetSlowdown(node int, factor float64) error {
	if err := e.controlReady(); err != nil {
		return err
	}
	if node < 0 || node >= len(e.nodes) {
		return fmt.Errorf("%w: slowdown node %d", runtime.ErrUnknownNode, node)
	}
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	e.nodes[node].slow.Store(math.Float64bits(factor))
	return nil
}

// NodeLoads returns the per-node queued message counts — the live engine's
// analogue of the simulator's queued cost-units, fed to Policy.Rebalance.
// The unit differs from the simulator's: policies with absolute thresholds
// calibrated in cost-units (DYNConfig.ActivationFloor) need engine-specific
// tuning; relative imbalance factors carry over as-is. Crashed nodes
// report the runtime.DownLoad sentinel (+Inf) so failure-aware policies
// can evacuate their operators.
func (e *Engine) NodeLoads() []float64 {
	out := make([]float64, len(e.nodeQueued))
	for i, ns := range e.nodes {
		ns.mu.Lock()
		down := ns.down
		ns.mu.Unlock()
		if down {
			out[i] = runtime.DownLoad
		} else {
			out[i] = float64(e.nodeQueued[i].Load())
		}
	}
	return out
}

// downSeconds is the virtual time nodes have spent down as of now: every
// finished outage, and each current one up to now.
func (e *Engine) downSeconds(now float64) float64 {
	total := 0.0
	for _, ns := range e.nodes {
		ns.mu.Lock()
		total += ns.downFor
		if ns.down && now > ns.downAt {
			total += now - ns.downAt
		}
		ns.mu.Unlock()
	}
	return total
}

// Drain blocks until all in-flight messages are processed. The wait is
// event-driven: workers signal every pending-count decrement, so Drain
// wakes as the last message sinks instead of polling.
func (e *Engine) Drain() {
	e.AwaitPending(context.Background(), 1, nil)
}

// Stop drains, shuts down the workers, and returns the router's part of the
// run's report (see report). A Stop that loses the race to another Stop
// waits for the winner's shutdown to complete, so every caller sees a
// fully-drained report.
func (e *Engine) Stop() *runtime.Report {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		<-e.stopDone
		return e.report()
	}
	e.stopped = true
	e.mu.Unlock()
	// Barrier: wait out any Ingest that passed its stopped-check before
	// the flag flipped; new Ingests are now rejected.
	e.sendMu.Lock()
	//lint:ignore SA2001 the empty critical section IS the barrier
	e.sendMu.Unlock()
	// Drain AFTER the barrier: every accounted message is processed
	// before the pools shut down.
	e.Drain()
	for _, ns := range e.nodes {
		ns.mu.Lock()
		if ns.down {
			// A node still down at shutdown: its queues were swept when it
			// went down, so only the parked backlog remains — count it as
			// lost, there is no recovery to replay into.
			parked := ns.parked
			ns.parked = nil
			ns.mu.Unlock()
			for _, m := range parked {
				e.lose(m)
			}
			continue
		}
		// Retire the incarnation with its pool: the transport is about to
		// let its nodes go, and a failure report racing that must find
		// nothing to take down. Having held every node's lock, Stop also
		// outlives any outage hook call.
		ns.gen++
		ns.pool++
		ns.mu.Unlock()
		ns.ready.Broadcast()
	}
	for _, ns := range e.nodes {
		ns.wg.Wait()
	}
	// A final sample, so the monitor reflects the fully processed run.
	e.offerStats()
	e.t.Close()
	e.closeLog()
	close(e.stopDone)
	return e.report()
}

// report snapshots the fields of a run's report the router owns: the
// ingest-side counts, plan use and switches, the sink's output and latency,
// and the failure counters. The session fills in the rest. Safe for
// concurrent use; the worker-side counts trail the ingest side by whatever
// is in flight.
func (e *Engine) report() *runtime.Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := &runtime.Report{
		Ingested:     float64(e.ingested),
		Produced:     float64(e.produced.Load()),
		Batches:      e.batches,
		PlanUse:      maps.Clone(e.planUse),
		PlanSwitches: e.switches,
		Crashes:      int(e.crashes.Load()),
		TuplesLost:   float64(e.lost.Load()),
		Restores:     int(e.restores.Load()),
	}
	if e.batches > 0 {
		r.MeanLatencyMS = float64(e.latencyNano.Load()) / 1e6 / float64(e.batches)
	}
	return r
}
