package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rld/internal/runtime"
	"rld/internal/stream"
)

// SessionOptions configures a simulator session.
type SessionOptions struct {
	// ResultBuffer is the Results subscription buffer; 0 disables result
	// delivery.
	ResultBuffer int
	// EventBuffer is the Events subscription buffer (default 64).
	EventBuffer int
}

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
	mu             sync.Mutex
	s              *Sim
	sc             *Scenario
	results        chan runtime.ResultBatch
	events         chan runtime.Event
	resultsDropped atomic.Int64
	eventsDropped  atomic.Int64
	swaps          int
	closed         bool
	report         *runtime.Report
}

// OpenSession starts a simulator session of scenario sc under pol. The
// scenario is defaulted in place (batch size, sampling, tick) exactly as
// Run would; pass a private copy when reusing scenarios across runs.
func OpenSession(sc *Scenario, pol runtime.Policy, opts SessionOptions) (*Session, error) {
	sim, err := New(sc, pol)
	if err != nil {
		return nil, err
	}
	ss := &Session{s: sim, sc: sc}
	evBuf := opts.EventBuffer
	if evBuf <= 0 {
		evBuf = 64
	}
	ss.events = make(chan runtime.Event, evBuf)
	sim.onEvent = ss.emit
	if opts.ResultBuffer > 0 {
		ss.results = make(chan runtime.ResultBatch, opts.ResultBuffer)
		sim.onResult = ss.observeResult
	}
	sim.seedControl()
	return ss, nil
}

// Substrate implements runtime.Session.
func (ss *Session) Substrate() string { return "sim" }

// Results implements runtime.Session.
func (ss *Session) Results() <-chan runtime.ResultBatch { return ss.results }

// Events implements runtime.Session.
func (ss *Session) Events() <-chan runtime.Event { return ss.events }

// emit delivers an event without blocking; the sim only advances under
// ss.mu, so emissions are ordered and never race the close in Close.
func (ss *Session) emit(ev runtime.Event) {
	select {
	case ss.events <- ev:
	default:
		ss.eventsDropped.Add(1)
	}
}

// observeResult delivers one completed batch's (possibly fractional)
// result count without blocking.
func (ss *Session) observeResult(t, count float64) {
	select {
	case ss.results <- runtime.ResultBatch{T: t, Count: count}:
	default:
		ss.resultsDropped.Add(1)
	}
}

// Ingest implements runtime.Session: advance virtual time to the batch's
// maximum timestamp (firing due ticks, samples, service completions, and
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
	if p := pol.Placement(); len(p) != len(ss.sc.Query.Ops) {
		return fmt.Errorf("sim: policy %s placement covers %d of %d ops", pol.Name(), len(p), len(ss.sc.Query.Ops))
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return runtime.ErrClosed
	}
	ss.s.pol = pol
	ss.swaps++
	ss.emit(runtime.Event{Kind: runtime.EventPolicySwap, T: ss.s.now, Node: -1, Op: -1, Policy: pol.Name()})
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
		return fmt.Errorf("sim: migrate unknown op %d", op)
	}
	if node < 0 || node >= len(ss.s.nodes) {
		return fmt.Errorf("sim: migrate to unknown node %d", node)
	}
	ss.s.applyMigration(&Migration{Op: op, To: node})
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
		return fmt.Errorf("sim: crash unknown node %d", node)
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
		return fmt.Errorf("sim: recover unknown node %d", node)
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
		ResultsDropped: ss.resultsDropped.Load(),
		EventsDropped:  ss.eventsDropped.Load(),
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
	end := ss.sc.Horizon
	if ss.s.now > end {
		end = ss.s.now
	}
	ss.s.advanceTo(end)
	rep := ss.s.finish()
	rep.Policy = ss.s.pol.Name()
	if ss.results != nil {
		close(ss.results)
	}
	close(ss.events)
	ss.report = rep
	return rep, nil
}

var _ runtime.Session = (*Session)(nil)
