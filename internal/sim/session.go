package sim

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"rld/internal/runtime"
	"rld/internal/stream"
)

// Session is the simulator's implementation of runtime.Session: a
// virtual-time adapter over the incremental discrete-event core, so tests
// and experiments can drive the exact API the live engine serves — same
// Ingest/Results/Events/SwapPolicy/Close protocol, with batches abstracted
// to their tuple counts and time advanced by batch timestamps instead of
// the wall clock. There is no backpressure in virtual time, so Ingest
// never blocks and TryIngest never rejects — the engine session's
// event-driven backpressure wakeups have nothing to signal here, and the
// adapter serializes all calls under one mutex (virtual time admits no
// useful concurrency).
type Session struct {
	// Outbox carries the Results and Events subscriptions. The sim emits
	// into it only while advancing under mu, so emissions are ordered and
	// never race the close in Close.
	*runtime.Outbox

	mu     sync.Mutex
	s      *Sim
	swaps  int
	closed bool
	report *runtime.Report
}

// OpenSession starts a simulator session of scenario sc under pol — the
// only way to run the simulator; Replay it on sc.Arrivals for the
// scenario's own arrival processes. The horizon, control period and fault
// plan come from opts, and sc is only read, so one scenario serves any
// number of sessions. The simulator has no backpressure, so
// opts.MaxPending is ignored.
func OpenSession(sc *Scenario, pol runtime.Policy, opts runtime.SessionOptions) (*Session, error) {
	sim, err := newSim(sc, pol, opts)
	if err != nil {
		return nil, err
	}
	ss := &Session{Outbox: runtime.NewOutbox(opts), s: sim}
	sim.out = ss.Outbox
	return ss, nil
}

// Substrate implements runtime.Session.
func (ss *Session) Substrate() string { return "sim" }

// Ingest implements runtime.Session: advance virtual time to the batch's
// maximum timestamp (firing due ticks, service completions, and
// scripted faults) and admit its tuple count through the admission
// protocol. Virtual time has no backpressure, so Ingest never blocks.
func (ss *Session) Ingest(ctx context.Context, b *stream.Batch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return ss.TryIngest(b)
}

// TryIngest implements runtime.Session.
func (ss *Session) TryIngest(b *stream.Batch) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return runtime.ErrClosed
	}
	if !slices.Contains(ss.s.sc.Query.Streams, b.Stream) {
		return fmt.Errorf("%w: %q", runtime.ErrUnknownStream, b.Stream)
	}
	if b.Len() > 0 {
		ss.s.advanceTo(float64(b.MaxTs()))
	}
	ss.s.admit(float64(b.Len()))
	return nil
}

// SwapPolicy implements runtime.Session: subsequent admissions classify
// under pol and subsequent ticks call its Rebalance; the live operator
// assignment is kept.
func (ss *Session) SwapPolicy(pol runtime.Policy) error {
	if pol == nil {
		return fmt.Errorf("sim: nil policy")
	}
	if p := pol.Placement(); len(p) != len(ss.s.sc.Query.Ops) {
		return fmt.Errorf("%w: policy %s covers %d of %d ops", runtime.ErrBadPlacement, pol.Name(), len(p), len(ss.s.sc.Query.Ops))
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return runtime.ErrClosed
	}
	ss.s.pol = pol
	ss.swaps++
	ss.Emit(runtime.Event{Kind: runtime.EventPolicySwap, T: ss.s.now, Node: -1, Op: -1, Policy: pol.Name()})
	return nil
}

// Migrate implements runtime.Session.
func (ss *Session) Migrate(op, node int) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return runtime.ErrClosed
	}
	if op < 0 || op >= len(ss.s.assign) {
		return fmt.Errorf("%w: migrate op %d", runtime.ErrUnknownOp, op)
	}
	if node < 0 || node >= len(ss.s.nodes) {
		return fmt.Errorf("%w: migrate to node %d", runtime.ErrUnknownNode, node)
	}
	ss.s.applyMigration(&runtime.Migration{Op: op, To: node})
	return nil
}

// Crash implements runtime.Session: takes the node down now, exactly as a
// scripted fault would (crashing a down node is a no-op).
func (ss *Session) Crash(node int) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return runtime.ErrClosed
	}
	if node < 0 || node >= len(ss.s.nodes) {
		return fmt.Errorf("%w: crash node %d", runtime.ErrUnknownNode, node)
	}
	ss.s.crashNode(node)
	return nil
}

// Recover implements runtime.Session.
func (ss *Session) Recover(node int) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return runtime.ErrClosed
	}
	if node < 0 || node >= len(ss.s.nodes) {
		return fmt.Errorf("%w: recover node %d", runtime.ErrUnknownNode, node)
	}
	ss.s.recoverNode(node)
	return nil
}

// Stats implements runtime.Session.
func (ss *Session) Stats() runtime.SessionStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	res := ss.s.res
	ds := res.DownSeconds
	rd, ed := ss.Dropped()
	for _, n := range ss.s.nodes {
		if n.down && ss.s.now > n.downSince {
			ds += ss.s.now - n.downSince
		}
	}
	return runtime.SessionStats{
		Policy:         ss.s.pol.Name(),
		Substrate:      "sim",
		VirtualTime:    ss.s.now,
		Ingested:       res.Ingested,
		Produced:       res.Produced,
		Dropped:        res.Dropped,
		TuplesLost:     res.TuplesLost,
		Batches:        res.Batches,
		PlanSwitches:   res.PlanSwitches,
		PolicySwaps:    ss.swaps,
		Migrations:     res.Migrations,
		Crashes:        res.Crashes,
		DownSeconds:    ds,
		ResultsDropped: rd,
		EventsDropped:  ed,
	}
}

// Close implements runtime.Session: run the remaining events out to the
// horizon, close the books, and return the report. The simulator is
// synchronous — there is no drain for a deadline to interrupt — so Close
// completes inline whatever ctx says: an expired context must not leave the
// session open behind a caller who was told it is closing.
func (ss *Session) Close(context.Context) (*runtime.Report, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return ss.report, nil
	}
	ss.closed = true
	ss.s.advanceTo(max(ss.s.horizon, ss.s.now))
	rep := ss.s.finish()
	rep.Policy = ss.s.pol.Name()
	ss.Outbox.Close()
	ss.report = rep
	return rep, nil
}

var _ runtime.Session = (*Session)(nil)
