package runtime

import (
	"context"
	"errors"
	"sync/atomic"

	"rld/internal/chaos"
	"rld/internal/stream"
)

// Session errors: the session protocol's own, and the control errors every
// substrate returns alike for a bad node, operator or placement. Failures
// only a live engine has (invalid plan, every node down, …) are defined
// next to it.
var (
	// ErrClosed reports an operation on a session after Close began.
	ErrClosed = errors.New("rld: session closed")
	// ErrBackpressure reports a TryIngest rejected because the pipeline is
	// at its in-flight capacity; back off and retry, or use the blocking
	// Ingest.
	ErrBackpressure = errors.New("rld: backpressure: pipeline at capacity")
	// ErrUnknownNode reports a node index outside the cluster.
	ErrUnknownNode = errors.New("rld: unknown node")
	// ErrUnknownOp reports an operator index outside the query.
	ErrUnknownOp = errors.New("rld: unknown operator")
	// ErrUnknownStream reports an ingested batch of a stream the query
	// does not name; the session is left unchanged.
	ErrUnknownStream = errors.New("rld: unknown stream")
	// ErrBadPlacement reports an operator placement that is incomplete or
	// references nodes outside the cluster.
	ErrBadPlacement = errors.New("rld: bad placement")
)

// SessionOptions configures a session on any substrate.
type SessionOptions struct {
	// TickEvery is the control period in virtual seconds (default 5): it
	// paces both the policy's Rebalance and the statistic monitor's
	// samples.
	TickEvery float64
	// Faults is an optional scripted fault schedule applied as the
	// session's virtual clock advances. Nil runs fault-free.
	Faults *chaos.FaultPlan
	// Horizon is the virtual-time end in seconds used to finalize fault
	// accounting at Close (0: the clock's high-water mark).
	Horizon float64
	// ResultBuffer is the Results subscription buffer; 0 disables result
	// delivery entirely (the sink only counts).
	ResultBuffer int
	// EventBuffer is the Events subscription buffer (default 64).
	EventBuffer int
	// MaxPending bounds in-flight messages for backpressure on the live
	// substrates: Ingest blocks and TryIngest rejects while the pipeline
	// holds this many. With concurrent producers the bound is approximate
	// — each producer can admit one batch past it before observing the
	// others. <= 0 disables the bound: a replay then paces itself through
	// the per-tick drain. The simulator has no backpressure and ignores it.
	MaxPending int
}

// EventKind enumerates the runtime occurrences a Session surfaces on its
// Events stream.
type EventKind int

const (
	// EventPlanSwitch fires when the per-batch classifier picks a
	// different logical plan than the previous batch's.
	EventPlanSwitch EventKind = iota
	// EventPolicySwap fires when SwapPolicy installs a new policy.
	EventPolicySwap
	// EventMigration fires when an operator is relocated to another node.
	EventMigration
	// EventCrash fires when a node goes down: every outage, injected (a
	// scripted fault or Crash) or detected.
	EventCrash
	// EventRecovery fires when a crashed node comes back.
	EventRecovery
	// EventSlowdown fires when a node's capacity factor changes (factor 1
	// restores full speed).
	EventSlowdown
	// EventCheckpoint fires when a periodic window snapshot completes.
	EventCheckpoint
)

// String returns the kind's stable lower-case label.
func (k EventKind) String() string {
	switch k {
	case EventPlanSwitch:
		return "plan-switch"
	case EventPolicySwap:
		return "policy-swap"
	case EventMigration:
		return "migration"
	case EventCrash:
		return "crash"
	case EventRecovery:
		return "recovery"
	case EventSlowdown:
		return "slowdown"
	case EventCheckpoint:
		return "checkpoint"
	}
	return "unknown"
}

// Event is one runtime occurrence on a session: plan switches, policy
// swaps, migrations, crashes/recoveries, slowdowns, and checkpoint
// completions. Fields not meaningful for a kind are -1 (Node, Op), 0
// (Factor), or empty (Plan, Policy).
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// T is the virtual time the event applied at.
	T float64
	// Node is the affected node (crash/recovery/slowdown, migration
	// destination); -1 otherwise.
	Node int
	// Op is the migrated operator; -1 otherwise.
	Op int
	// Plan is the new logical plan's key for plan switches.
	Plan string
	// Policy is the new policy's name for policy swaps.
	Policy string
	// Factor is the capacity factor for slowdowns (1 = restored).
	Factor float64
}

// ResultBatch is one sink emission delivered on a session's Results
// stream: the results of one batch completing the pipeline.
type ResultBatch struct {
	// T is the virtual time of emission.
	T float64
	// Count is the number of result tuples (the simulator's expected
	// count may be fractional).
	Count float64
	// Tuples holds the joined result tuples on the live engine. They are
	// copies made for the consumer, who owns them for good: nothing in
	// the pipeline refers to them again. One emission's tuples share
	// backing storage, so retaining any one of them retains the whole
	// emission's copy. Nil on the simulator, which models counts, not
	// payloads.
	Tuples []*stream.Joined
}

// SessionStats is a live snapshot of a running session's counters —
// Stats() can be polled at any time without disturbing the run.
type SessionStats struct {
	// Policy is the current policy's name.
	Policy string
	// Substrate identifies what runs the session ("sim", "engine" or
	// "net").
	Substrate string
	// VirtualTime is the session's current virtual clock in seconds.
	VirtualTime float64
	// Ingested counts source tuples admitted so far.
	Ingested float64
	// Produced counts result tuples emitted so far.
	Produced float64
	// Dropped counts tuples shed by admission control (sim only).
	Dropped float64
	// TuplesLost counts tuples destroyed by node failures so far.
	TuplesLost float64
	// Batches counts tuple batches admitted.
	Batches int64
	// Pending counts in-flight messages not yet sunk (engine only).
	Pending int64
	// PlanSwitches counts logical plan changes between batches.
	PlanSwitches int
	// PolicySwaps counts SwapPolicy calls applied.
	PolicySwaps int
	// Migrations counts operator relocations.
	Migrations int
	// Crashes counts node outages: every outage, injected or detected.
	Crashes int
	// Restores counts checkpoint-restores performed on recovery.
	Restores int
	// DownSeconds is the summed virtual time nodes spent down, over every
	// outage, injected or detected.
	DownSeconds float64
	// ResultsDropped counts ResultBatch emissions discarded because the
	// Results subscriber fell behind its buffer.
	ResultsDropped int64
	// EventsDropped counts Events discarded because the subscriber fell
	// behind its buffer.
	EventsDropped int64
}

// Session is a long-lived, context-aware streaming run: the session
// protocol of the redesigned API, implemented natively by the live engine
// and by the simulator through a virtual-time adapter, so tests and
// experiments can drive the identical surface on either substrate.
//
// A session is running from the moment it is opened. Batches are pushed
// with Ingest (blocking backpressure) or TryIngest (non-blocking);
// results, runtime events, and statistics are observed while it runs; the
// policy can be hot-swapped; and Close drains in-flight work and returns
// the final Report. All methods are safe for concurrent use, and
// substrates admit from concurrent producers in parallel where they can
// (the live engine serializes only its clock-edge protocol and control
// operations; they still serialize all Policy calls, honoring the Policy
// contract's single-caller promise).
type Session interface {
	// Substrate names the executing substrate ("sim", "engine" or "net").
	Substrate() string
	// Ingest admits one batch, blocking while the pipeline is at its
	// in-flight capacity; implementations wake blocked callers promptly
	// on Close (ErrClosed) and context cancellation (ctx.Err()) rather
	// than at a poll tick. It returns ctx.Err() if the context ends
	// first, ErrClosed after Close, or a substrate error (e.g. every
	// node down). Batch timestamps drive the session's virtual clock and
	// must not decrease per producer; across concurrent producers the
	// clock advances to the maximum timestamp observed.
	Ingest(ctx context.Context, b *stream.Batch) error
	// TryIngest admits one batch without blocking: ErrBackpressure when
	// the pipeline is at capacity, otherwise as Ingest.
	TryIngest(b *stream.Batch) error
	// Results returns the result subscription (nil when the session was
	// opened without a result buffer). The channel closes after Close
	// completes; emissions that would block are dropped and counted in
	// Stats().ResultsDropped.
	Results() <-chan ResultBatch
	// Events returns the runtime event stream: plan switches, policy
	// swaps, migrations, crashes/recoveries, slowdowns, checkpoints. The
	// channel closes after Close completes; emissions that would block
	// are dropped and counted in Stats().EventsDropped.
	Events() <-chan Event
	// Stats returns a live snapshot of the run's counters.
	Stats() SessionStats
	// SwapPolicy hot-swaps the load-distribution policy: subsequent
	// batches classify under the new policy and subsequent control ticks
	// call its Rebalance. The live operator placement is kept — the new
	// policy inherits it and may migrate from there.
	SwapPolicy(pol Policy) error
	// Migrate relocates one operator to another node immediately.
	Migrate(op, node int) error
	// Crash takes a node down, as a scripted fault would.
	Crash(node int) error
	// Recover brings a crashed node back.
	Recover(node int) error
	// Close drains in-flight work, shuts the session down, and returns
	// the final Report, honoring ctx: when the deadline expires first it
	// returns ctx.Err() and completes the shutdown in the background.
	// Further Close calls return the same Report.
	Close(ctx context.Context) (*Report, error)
}

// Outbox is a session's two subscriptions, Results and Events, with their
// drop counters. Delivery never blocks: an emission the subscriber's buffer
// cannot take is dropped and counted. Sessions embed it for their Results
// and Events methods; whatever emits into it — the session, the router, the
// simulator — must not race Close, which the owning session orders.
type Outbox struct {
	results        chan ResultBatch
	events         chan Event
	resultsDropped atomic.Int64
	eventsDropped  atomic.Int64
}

// NewOutbox makes the subscriptions opts asks for: a result channel only
// with a ResultBuffer, and an event channel always (default 64 slots).
func NewOutbox(opts SessionOptions) *Outbox {
	evBuf := opts.EventBuffer
	if evBuf <= 0 {
		evBuf = 64
	}
	o := &Outbox{events: make(chan Event, evBuf)}
	if opts.ResultBuffer > 0 {
		o.results = make(chan ResultBatch, opts.ResultBuffer)
	}
	return o
}

// Results implements Session.
func (o *Outbox) Results() <-chan ResultBatch { return o.results }

// Events implements Session.
func (o *Outbox) Events() <-chan Event { return o.events }

// Emit delivers ev without blocking. It is a no-op on a nil outbox, so a
// substrate running without a session emits unconditionally.
func (o *Outbox) Emit(ev Event) {
	if o == nil {
		return
	}
	select {
	case o.events <- ev:
	default:
		o.eventsDropped.Add(1)
	}
}

// Full reports whether the result buffer is full, counting the drop if so:
// a caller checks it before paying for a ResultBatch Deliver would drop.
// Deliver stays the authority — the buffer can fill between the two. Only
// meaningful with a result subscription.
func (o *Outbox) Full() bool {
	if len(o.results) < cap(o.results) {
		return false
	}
	o.resultsDropped.Add(1)
	return true
}

// Deliver hands rb to the Results subscriber without blocking. It is a
// no-op on a nil outbox or without a result subscription.
func (o *Outbox) Deliver(rb ResultBatch) {
	if o == nil || o.results == nil {
		return
	}
	select {
	case o.results <- rb:
	default:
		o.resultsDropped.Add(1)
	}
}

// Dropped returns the emissions discarded so far because a subscriber fell
// behind its buffer.
func (o *Outbox) Dropped() (results, events int64) {
	return o.resultsDropped.Load(), o.eventsDropped.Load()
}

// Close closes both subscriptions. The owning session calls it once, after
// the last emission.
func (o *Outbox) Close() {
	if o.results != nil {
		close(o.results)
	}
	close(o.events)
}

// Replay drives feed through s to exhaustion, then closes s and returns
// the final report: the one-shot way to run a finite feed. The session is
// closed even when the feed is nil or ingestion fails.
func Replay(ctx context.Context, s Session, feed Feed) (*Report, error) {
	if feed == nil {
		s.Close(ctx)
		return nil, errors.New("rld: Replay needs a feed")
	}
	for b := feed.Next(); b != nil; b = feed.Next() {
		if err := s.Ingest(ctx, b); err != nil {
			s.Close(ctx)
			return nil, err
		}
	}
	return s.Close(ctx)
}
