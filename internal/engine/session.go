package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"rld/internal/chaos"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
	"rld/internal/stream"
)

// Session is the live engine's implementation of runtime.Session: a
// long-lived streaming run over a real sharded multi-worker engine. The
// virtual clock advances with ingested batch timestamps; control ticks,
// scripted faults, and checkpoints fire as the clock passes their edges,
// for concurrent callers with backpressure, result/event subscriptions,
// live stats, and policy hot-swap.
//
// Admission is concurrent: only the session protocol itself — clock
// edges (ticks, faults, checkpoints), policy calls, and control ops — is
// serialized. Producers on the fast path (no edge crossed) share a read
// lock and run Engine.Ingest in parallel, so ingest throughput scales
// with producer count instead of funneling through one mutex.
type Session struct {
	// Outbox carries the Results and Events subscriptions; the router
	// emits plan switches and outages into it too.
	*runtime.Outbox

	e         *Engine
	substrate string
	q         *query.Query
	opts      runtime.SessionOptions
	tick      float64
	mode      chaos.RecoveryMode

	maxPending int64
	start      time.Time

	// nextEdge caches the earliest upcoming tick/checkpoint/fault edge
	// (float64 bits): a batch whose timestamp stays below it takes the
	// lock-free fast path; crossing it takes mu and runs the serialized
	// session protocol.
	nextEdge atomic.Uint64
	// closing gates Ingest/TryIngest without taking mu.
	closing atomic.Bool
	// closeCh closes when Close begins, waking producers blocked on
	// backpressure promptly instead of at their next poll.
	closeCh chan struct{}

	// mu serializes the session's control protocol: tick and fault
	// cursors, control ops, stats snapshots, and close. Fast-path
	// admission holds the read side, so control decisions still exclude
	// all in-flight admissions (a tick's Drain settles a quiesced
	// pipeline), while admissions exclude only each other's edges.
	mu         sync.RWMutex
	nextTick   float64
	cursor     *chaos.Cursor
	nextCkpt   float64
	migrations int
	downtime   float64
	swaps      int
	closed     bool

	// done is set at construction and never reassigned; it closes as
	// finish's last act, after report is published under mu, so a
	// receiver needs no lock for the channel itself and sees report via
	// the close's happens-before edge.
	done chan struct{}

	// polMu serializes policy calls from concurrent fast-path producers
	// (the Policy contract promises implementations a single caller) and
	// guards the overhead accumulator. pol is written under both mu and
	// polMu, so a reader holding either sees a settled value.
	polMu    sync.Mutex
	pol      runtime.Policy //rldlint:guardedby polMu
	overhead float64        //rldlint:guardedby polMu

	report *runtime.Report //rldlint:guardedby mu
}

// OpenSession starts a live-engine session executing q across nNodes nodes
// configured by cfg under pol. The session is running on return; Close
// shuts it down.
func OpenSession(q *query.Query, nNodes int, pol runtime.Policy, cfg Config, opts runtime.SessionOptions) (*Session, error) {
	if q == nil {
		return nil, fmt.Errorf("engine: session needs a query")
	}
	if pol == nil {
		return nil, fmt.Errorf("engine: session needs a policy")
	}
	e, err := New(q, pol.Placement(), nNodes, nil, cfg)
	if err != nil {
		return nil, err
	}
	return OpenSessionOn(e, "engine", pol, opts)
}

// OpenSessionOn runs the session protocol over an already-constructed
// engine: netrt builds one over its worker-process cluster and hands it
// here, so the wire substrate shares the virtual clock, tick/fault/
// checkpoint edges, backpressure, and result/event plumbing. The engine
// must not be started; the session installs its chooser, clock, and result
// tap, then starts it. The session owns the engine from the call on: a
// rejected open stops it, releasing its log and its processes.
func OpenSessionOn(e *Engine, substrate string, pol runtime.Policy, opts runtime.SessionOptions) (*Session, error) {
	if e == nil {
		return nil, fmt.Errorf("engine: session needs an engine")
	}
	err := opts.Faults.Validate(e.Nodes())
	if pol == nil {
		err = errors.New("session needs a policy")
	}
	if err != nil {
		e.Stop()
		return nil, fmt.Errorf("engine: %w", err)
	}
	s := &Session{
		Outbox:     runtime.NewOutbox(opts),
		e:          e,
		substrate:  substrate,
		q:          e.q,
		opts:       opts,
		tick:       opts.TickEvery,
		mode:       chaos.Checkpoint,
		maxPending: int64(opts.MaxPending),
		start:      time.Now(), //rldlint:allow wallclock -- Result.WallSeconds reports host wall time by contract
		pol:        pol,
		nextCkpt:   math.Inf(1),
		closeCh:    make(chan struct{}),
		done:       make(chan struct{}),
	}
	if s.tick <= 0 {
		s.tick = 5
	}
	s.nextTick = s.tick
	if !opts.Faults.Empty() {
		s.cursor = opts.Faults.Cursor()
		s.mode = opts.Faults.Mode
		if opts.Faults.Mode == chaos.Checkpoint {
			s.nextCkpt = opts.Faults.SnapshotEvery()
		}
	}
	s.recomputeEdgeLocked()
	// The chooser runs synchronously inside Engine.Ingest, possibly from
	// many producers at once; polMu serializes the policy call, honoring
	// the Policy contract's serial-caller promise. Plan switches and outages
	// are the router's to detect: it counts each and emits it into the
	// outbox in one critical section, so events and counts agree.
	e.SetChooser(ChooserFunc(func(snap stats.Snapshot) query.Plan {
		s.polMu.Lock()
		defer s.polMu.Unlock()
		return s.pol.PlanFor(s.e.appTime(), snap)
	}))
	e.out.Store(s.Outbox)
	if s.Results() != nil {
		e.SetResultObserver(s.observeResult)
	}
	e.Start()
	return s, nil
}

// Substrate implements runtime.Session.
func (s *Session) Substrate() string { return s.substrate }

// observeResult is the engine's sink tap: it detaches the emission from the
// pipeline — steals the last stage's block, or copies out of it — and
// delivers it without blocking the worker. A full buffer is counted before
// either is paid for.
func (s *Session) observeResult(tuples []*stream.Joined, _ time.Time) {
	if s.Full() {
		return
	}
	s.Deliver(runtime.ResultBatch{
		T:      s.e.appTime(),
		Count:  float64(len(tuples)),
		Tuples: stream.Detach(tuples),
	})
}

// edge reads the cached next tick/checkpoint/fault edge.
func (s *Session) edge() float64 { return math.Float64frombits(s.nextEdge.Load()) }

// recomputeEdgeLocked refreshes the cached earliest edge after the control
// path consumed one. Caller holds mu (write) — or runs before the session
// is visible.
func (s *Session) recomputeEdgeLocked() {
	edge := s.nextTick
	if s.nextCkpt < edge {
		edge = s.nextCkpt
	}
	if s.cursor != nil {
		if t, ok := s.cursor.Peek(); ok && t < edge {
			edge = t
		}
	}
	s.nextEdge.Store(math.Float64bits(edge))
}

// applyFaults fires checkpoints and scripted fault edges the clock has
// passed: snapshot first, so a crash at the same boundary sees the
// freshest state. Caller holds mu.
func (s *Session) applyFaults(now float64) {
	if now >= s.nextCkpt {
		s.e.Checkpoint()
		s.Emit(runtime.Event{Kind: runtime.EventCheckpoint, T: now, Node: -1, Op: -1})
		for now >= s.nextCkpt {
			s.nextCkpt += s.opts.Faults.SnapshotEvery()
		}
	}
	if s.cursor == nil {
		return
	}
	for _, ev := range s.cursor.Advance(now) {
		f := ev.Fault
		switch {
		case f.Kind == chaos.Crash && ev.Begin:
			_ = s.e.crashAt(f.Node, s.mode, ev.T) // a scripted edge that cannot apply is skipped
		case f.Kind == chaos.Crash && !ev.Begin:
			_ = s.e.recoverAt(f.Node, ev.T)
		case f.Kind == chaos.Slowdown && ev.Begin:
			s.e.SetSlowdown(f.Node, f.Factor)
			s.Emit(runtime.Event{Kind: runtime.EventSlowdown, T: ev.T, Node: f.Node, Op: -1, Factor: f.Factor})
		case f.Kind == chaos.Slowdown && !ev.Begin:
			s.e.SetSlowdown(f.Node, 1)
			s.Emit(runtime.Event{Kind: runtime.EventSlowdown, T: ev.T, Node: f.Node, Op: -1, Factor: 1})
		}
	}
}

// addOverhead accounts the policy's per-batch classification work.
func (s *Session) addOverhead() {
	s.polMu.Lock()
	s.overhead += s.pol.ClassifyOverhead()
	s.polMu.Unlock()
}

// ingest is the admission path. The virtual clock is the router's app time:
// a batch lifts it to its maximum timestamp (a CAS-max that ignores
// non-positive stamps) before its plan is chosen. Batches that stay below
// the next tick/fault/checkpoint edge take the fast path: advance the clock
// and admit (safe for concurrent use) under the read lock, in parallel with
// other producers; a batch that fills the bound is then carried outside it,
// so Close, control ops and Stats do not wait behind it. A batch that
// crosses an edge takes the write lock and runs the serialized session
// protocol — fire due faults, admit, run due control ticks — excluding all
// concurrent admissions for exactly the span of the edge; it never carries.
func (s *Session) ingest(b *stream.Batch) error {
	if s.e.core.schema.Slot(b.Stream) < 0 {
		// Refused before the clock moves, so the session is unchanged.
		return fmt.Errorf("%w: %q", runtime.ErrUnknownStream, b.Stream)
	}
	ts := float64(b.MaxTs())
	if ts < s.edge() {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return runtime.ErrClosed
		}
		s.e.advanceAppTime(ts)
		msg, err := s.e.admit(b, s.fills())
		if err == nil {
			s.addOverhead()
		}
		s.mu.RUnlock()
		if msg != nil {
			s.e.carry(msg)
		}
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	s.e.advanceAppTime(ts)
	now := s.e.appTime()
	s.applyFaults(now)
	defer s.recomputeEdgeLocked()
	if err := s.e.Ingest(b); err != nil {
		return err
	}
	s.addOverhead()
	if now >= s.nextTick {
		// Sample queue depths BEFORE draining: Drain empties every inbox,
		// so a post-drain sample would always show zero load and
		// imbalance-triggered policies (DYN) could never fire. One sample
		// covers all catch-up ticks below.
		loads := s.e.NodeLoads()
		// Settle in-flight work before the control decision: this bounds
		// the skew between ingestion and processing to one tick of
		// virtual time. The write lock holds new admissions out, so the
		// drain is of a quiescing pipeline and cannot be starved.
		s.e.Drain()
		// The monitor samples here, once per crossing: the drained
		// counters are settled, and every batch admitted after the tick
		// classifies on them.
		s.e.offerStats()
		for now >= s.nextTick {
			s.polMu.Lock()
			s.overhead += s.pol.DecisionOverhead()
			s.polMu.Unlock()
			assign := s.e.Assignment()
			//rldlint:allow guardedby -- pol writes hold mu too, and the tick runs under mu's write side with admissions fenced out, so no concurrent policy caller exists
			if mig := s.pol.Rebalance(s.nextTick, loads, assign); mig != nil {
				// Same-node requests are no-ops and not counted, matching
				// the simulator's accounting.
				if mig.Op >= 0 && mig.Op < len(assign) && assign[mig.Op] != mig.To {
					if err := s.e.Migrate(mig.Op, mig.To); err == nil {
						s.migrations++
						s.downtime += mig.Downtime
						s.Emit(runtime.Event{Kind: runtime.EventMigration, T: s.nextTick, Node: mig.To, Op: mig.Op})
					}
				}
			}
			s.nextTick += s.tick
		}
	}
	return nil
}

// ready reports whether the pipeline has room for another batch.
func (s *Session) ready() bool {
	return s.maxPending <= 0 || s.e.Pending() < s.maxPending
}

// fills reports whether a batch admitted now fills the in-flight bound,
// which its producer would only wait out, and the Results subscriber is
// caught up. A producer that never yields would starve a lagging one, so
// when an emission waits, the producer yields to let the subscriber drain: a
// subscriber that does lets it carry the batch, one that does not gets the
// batch handed off. It yields at most twice: Gosched puts the producer on
// the global run queue, which the scheduler serves first on one schedule in
// 61, so one yield in 61 comes straight back before the subscriber has run.
func (s *Session) fills() bool {
	if s.maxPending <= 0 || s.e.Pending()+1 < s.maxPending {
		return false
	}
	for range 2 {
		if len(s.Results()) == 0 {
			return true
		}
		stdruntime.Gosched()
	}
	return len(s.Results()) == 0
}

// Ingest implements runtime.Session: it blocks while the pipeline holds
// MaxPending in-flight messages, until the context ends or the session
// closes. The wait is event-driven: workers signal every pending-count
// decrement, so a blocked producer wakes as soon as capacity frees (and
// Close or context cancellation wakes it immediately) instead of on a
// poll tick. A batch that fills the bound is carried (Engine.carry) when the
// Results subscriber has nothing undelivered, or drains it while the
// producer yields (see fills): Ingest returns once the batch has passed
// every idle node on its way.
func (s *Session) Ingest(ctx context.Context, b *stream.Batch) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.closing.Load() {
			return runtime.ErrClosed
		}
		if s.ready() {
			return s.ingest(b)
		}
		if err := s.e.AwaitPending(ctx, s.maxPending, s.closeCh); err != nil {
			return err
		}
	}
}

// TryIngest implements runtime.Session; it carries as Ingest does.
func (s *Session) TryIngest(b *stream.Batch) error {
	if s.closing.Load() {
		return runtime.ErrClosed
	}
	if !s.ready() {
		return runtime.ErrBackpressure
	}
	return s.ingest(b)
}

// SwapPolicy implements runtime.Session: subsequent batches classify under
// pol and subsequent ticks call its Rebalance. The live placement is kept;
// the new policy inherits it.
func (s *Session) SwapPolicy(pol runtime.Policy) error {
	if pol == nil {
		return fmt.Errorf("engine: nil policy")
	}
	if p := pol.Placement(); len(p) != len(s.q.Ops) {
		return fmt.Errorf("%w: policy %s covers %d of %d ops", runtime.ErrBadPlacement, pol.Name(), len(p), len(s.q.Ops))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	s.polMu.Lock()
	s.pol = pol
	s.polMu.Unlock()
	s.swaps++
	s.Emit(runtime.Event{Kind: runtime.EventPolicySwap, T: s.e.appTime(), Node: -1, Op: -1, Policy: pol.Name()})
	return nil
}

// Migrate implements runtime.Session: an operator relocation outside any
// policy's Rebalance decision (operations tooling, tests).
func (s *Session) Migrate(op, node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	assign := s.e.Assignment()
	if op >= 0 && op < len(assign) && assign[op] == node {
		return nil
	}
	if err := s.e.Migrate(op, node); err != nil {
		return err
	}
	s.migrations++
	s.Emit(runtime.Event{Kind: runtime.EventMigration, T: s.e.appTime(), Node: node, Op: op})
	return nil
}

// Crash implements runtime.Session: takes the node down exactly as a
// scripted fault beginning now would, under the session's recovery mode.
func (s *Session) Crash(node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	return s.e.Crash(node, s.mode)
}

// Recover implements runtime.Session.
func (s *Session) Recover(node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	return s.e.Recover(node)
}

// Stats implements runtime.Session. The counter snapshot is taken under
// the session's write lock, excluding all in-flight admissions, so the
// admission-side fields (VirtualTime, Ingested, Batches, Migrations,
// PolicySwaps) are mutually consistent; worker-side counters (Produced,
// Pending, TuplesLost) may still trail by whatever the pipeline holds.
func (s *Session) Stats() runtime.SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.e.report()
	now := s.e.appTime()
	s.polMu.Lock()
	polName := s.pol.Name()
	s.polMu.Unlock()
	rd, ed := s.Dropped()
	return runtime.SessionStats{
		Policy:         polName,
		Substrate:      s.substrate,
		VirtualTime:    now,
		Ingested:       r.Ingested,
		Produced:       r.Produced,
		TuplesLost:     r.TuplesLost,
		Batches:        r.Batches,
		Pending:        s.e.Pending(),
		PlanSwitches:   r.PlanSwitches,
		PolicySwaps:    s.swaps,
		Migrations:     s.migrations,
		Crashes:        r.Crashes,
		Restores:       r.Restores,
		DownSeconds:    s.e.downSeconds(now),
		ResultsDropped: rd,
		EventsDropped:  ed,
	}
}

// Close implements runtime.Session: fire the remaining scripted faults up
// to the horizon, finalize downtime, drain in-flight work, stop the
// engine, and return the final report. Producers blocked on backpressure
// are woken immediately with ErrClosed. When ctx ends before the drain
// completes, Close returns ctx.Err() and the shutdown finishes in the
// background; later Close calls wait for it and return the stored report.
func (s *Session) Close(ctx context.Context) (*runtime.Report, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		select {
		case <-s.done:
			//rldlint:allow guardedby -- report is written under mu before done closes; the close's happens-before edge covers this read
			return s.report, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.closed = true
	s.closing.Store(true)
	close(s.closeCh)
	// The feed is over; fire the remaining fault events up to the horizon
	// (the simulator fires them as discrete events regardless of
	// arrivals). A node whose scripted recovery lies beyond the horizon
	// stays down — Stop counts its parked backlog as lost, and its
	// downtime runs to the horizon.
	end := s.opts.Horizon
	if n := s.e.appTime(); end < n {
		end = n
	}
	s.applyFaults(end)
	pol := s.pol //rldlint:allow guardedby -- pol writes hold mu too; this read holds mu's write side
	s.mu.Unlock()

	finish := func() *runtime.Report {
		rep := s.e.Stop()
		s.mu.Lock()
		s.polMu.Lock()
		rep.OverheadWork = s.overhead
		s.polMu.Unlock()
		rep.Policy, rep.Substrate = pol.Name(), s.substrate
		rep.Migrations, rep.MigrationDowntime = s.migrations, s.downtime
		rep.WallSeconds = time.Since(s.start).Seconds() //rldlint:allow wallclock -- host wall time by contract
		rep.DownSeconds = s.e.downSeconds(end)
		s.report = rep
		s.mu.Unlock()
		// Every admission and control path has drained, and Stop has held
		// every node's lock, so neither this session nor the router emits
		// again.
		s.Outbox.Close()
		close(s.done)
		return rep
	}

	// Context-aware drain: Stop would drain unconditionally, so wait here
	// where the deadline can interrupt. Event-driven — the last sinking
	// message wakes this immediately.
	if err := s.e.AwaitPending(ctx, 1, nil); err != nil {
		// Detached Stop-drain after the ctx deadline; bounded by Stop's
		// own drain timeout.
		go finish()
		return nil, err
	}
	return finish(), nil
}

var _ runtime.Session = (*Session)(nil)
