package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"rld"
)

// Every pipeline runs 2 nodes with one worker each, fanout capped at 8.
const (
	nodes     = 2
	maxFanout = 8
	// resultBuffer holds more emissions than the default depth lets in
	// flight, so the consumer never drops one.
	resultBuffer = 8192
	// ckptBatches is one checkpoint period in batches.
	ckptBatches = tickBatches * ckptTicks
	// phaseLead shifts phase starts off the control edges by half a tick, so
	// timestamp jitter cannot move an edge across a segment boundary.
	phaseLead = tickBatches / 2
)

// run is one execution of one workload: the feed, the operation counts the
// result line reports, and the scratch directory for write-ahead logs.
type run struct {
	spec *spec
	feed *feed
	ctx  context.Context
	// walDir is the parent of every pipeline's WAL directory.
	walDir string
	// trace, when non-nil, records spans around the calls the harness makes.
	trace *tracer

	attempted int64
	failed    int64
	notes     []string
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// farFuture is a crash window no run reaches. A Checkpoint-mode fault plan
// with no faults never checkpoints, and the WAL then grows without bound,
// so every pipeline carries at least this one window.
var farFuture = rld.Fault{Kind: rld.FaultCrash, Node: 0, At: 1e12, Until: 1e12 + 1}

// steadyFaults is the plan of every pipeline that is not crashed on purpose.
func (s *spec) steadyFaults() *rld.FaultPlan {
	return &rld.FaultPlan{Mode: rld.CheckpointRecovery, CheckpointEvery: s.ckptEvery(), Faults: []rld.Fault{farFuture}}
}

// warmCount is the number of warm-up batches: enough for every window to
// hold a full span, rounded up to whole checkpoint periods plus phaseLead.
func (s *spec) warmCount() int {
	periods := (s.warmBatches() + ckptBatches - 1) / ckptBatches
	return periods*ckptBatches + phaseLead
}

// pipe is one open pipeline with its producer position and result consumer.
type pipe struct {
	r     *run
	p     *rld.Pipeline
	dep   *rld.Deployment
	sink  *sink
	next  int     // next global batch index to offer
	setup float64 // seconds from Optimize to the end of warm-up
	// setupBurstMS is the reference burst run right after the warm-up.
	setupBurstMS float64
	// optimizeMS is Optimize's share of setup.
	optimizeMS float64
}

// open builds the deployment and opens a pipeline at the given depth (0:
// the session default) under plan, with its result consumer running.
func (r *run) open(depth int, plan *rld.FaultPlan, fanout int) (*pipe, error) {
	s := r.spec
	t0 := time.Now()
	q := r.feed.query
	dims := []rld.Dim{
		rld.SelDim(0, q.Ops[0].Sel, 3),
		rld.SelDim(s.streams-2, q.Ops[s.streams-2].Sel, 3),
	}
	// Capacity is sized so the optimizer always finds a placement; the
	// engine does not enforce it.
	dep, err := rld.Optimize(q, dims, rld.NewCluster(nodes, 1e9), rld.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	optimizeMS := ms(time.Since(t0))
	opts := []rld.Option{
		rld.WithWorkers(1),
		rld.WithMaxFanout(fanout),
		rld.WithTickEvery(s.tickEvery()),
		rld.WithFaults(plan),
		rld.WithBufferedResults(resultBuffer),
		rld.WithClassifyBatch(s.batch),
	}
	if depth > 0 {
		opts = append(opts, rld.WithMaxPending(depth))
	}
	if s.distributed {
		opts = append(opts, rld.WithDistributed(nodes))
	}
	if s.durable {
		opts = append(opts, rld.WithExactlyOnce(r.walDir))
	}
	p, err := rld.Open(r.ctx, dep, nil, opts...)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	pp := &pipe{r: r, p: p, dep: dep, optimizeMS: optimizeMS}
	pp.sink = newSink(r.feed, p.Results())
	return pp, nil
}

// warm ingests the warm-up prefix and stamps the setup time, measured from
// t0 (the moment open was called).
func (pp *pipe) warm(t0 time.Time) {
	for i := 0; i < pp.r.spec.warmCount(); i++ {
		pp.offer()
	}
	pp.quiesce()
	pp.setup = time.Since(t0).Seconds()
	pp.setupBurstMS = calibrate()
}

// openWarm is open followed by warm: one setup sample.
func (r *run) openWarm(depth int, plan *rld.FaultPlan) (*pipe, error) {
	t0 := time.Now()
	pp, err := r.open(depth, plan, maxFanout)
	if err != nil {
		return nil, err
	}
	pp.warm(t0)
	return pp, nil
}

// offer ingests the next batch, blocking on backpressure, and counts it.
func (pp *pipe) offer() {
	b := pp.r.feed.emit(pp.next)
	pp.next++
	pp.r.attempted++
	if err := pp.p.Ingest(pp.r.ctx, b); err != nil {
		pp.r.fail("ingest batch %d: %v", pp.next-1, err)
	}
}

// quiesce waits until nothing is in flight and the consumer has seen every
// result tuple the pipeline produced.
func (pp *pipe) quiesce() {
	for spins := 0; ; spins++ {
		st := pp.p.Stats()
		if st.Pending == 0 && (int64(st.Produced) == pp.sink.tuples.Load() || st.ResultsDropped > 0) {
			return
		}
		if spins < 64 {
			time.Sleep(10 * time.Microsecond)
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// close shuts the pipeline down and checks the run-level invariants: every
// offered tuple was ingested, no emission was dropped, and nothing was lost
// to a crash (parked work is replayed in Checkpoint mode, so any loss is a
// failure — under exactly-once by definition, otherwise because no workload
// crashes a node with work it cannot park).
func (pp *pipe) close() *rld.Report {
	st := pp.p.Stats()
	rep, err := pp.p.Close(pp.r.ctx)
	<-pp.sink.done
	if err != nil {
		pp.r.fail("close: %v", err)
		return nil
	}
	if want := float64(pp.next * pp.r.spec.batch); rep.Ingested != want {
		pp.r.fail("ingested %.0f tuples, offered %.0f", rep.Ingested, want)
	}
	if st.ResultsDropped > 0 {
		pp.r.fail("%d result emissions dropped", st.ResultsDropped)
	}
	if rep.TuplesLost > 0 {
		pp.r.fail("%.0f tuples lost", rep.TuplesLost)
	}
	return rep
}

// sink is the single Results() consumer. It counts what it receives and,
// per emission, looks up when the batch that caused it was due.
type sink struct {
	feed   *feed
	tuples atomic.Int64
	done   chan struct{}

	// due[g mod len] is batch g's due time in nanoseconds since epoch; the
	// producer writes it before Ingest and the consumer reads it after the
	// emission arrives, ordered by the pipeline's own synchronisation. The
	// ring is far longer than the deepest pipeline.
	due   [1 << 15]int64
	epoch time.Time
	// latMS collects one latency per emission, in milliseconds, while
	// record is set. Only the consumer appends; the harness takes the slice
	// when quiesced.
	latMS  []float64
	record atomic.Bool
	// onTuple, when set before the first offer, sees every result tuple.
	onTuple func(*rld.Joined)
}

func newSink(f *feed, results <-chan rld.ResultBatch) *sink {
	s := &sink{feed: f, done: make(chan struct{}), epoch: time.Now()}
	go func() {
		defer close(s.done)
		for rb := range results {
			if s.record.Load() && len(rb.Tuples) > 0 {
				g := s.trigger(rb.Tuples[0])
				s.latMS = append(s.latMS, float64(time.Since(s.epoch).Nanoseconds()-s.due[g%len(s.due)])/1e6)
			}
			if s.onTuple != nil {
				for _, j := range rb.Tuples {
					s.onTuple(j)
				}
			}
			s.tuples.Add(int64(len(rb.Tuples)))
		}
	}()
	return s
}

// trigger returns the global index of the batch whose arrival produced j:
// the newest batch among its parts. (A pipelined probe can see an insert
// from a batch behind it; the emission is then attributed to that later
// batch and reads slightly short.)
func (s *sink) trigger(j *rld.Joined) int {
	g := -1
	for slot := range s.feed.query.Streams {
		if t, ok := j.Part(slot); ok {
			g = max(g, s.feed.batchOf(slot, t.Seq))
		}
	}
	return g
}

// stamp records batch g's due time.
func (s *sink) stamp(g int, due time.Time) { s.due[g%len(s.due)] = due.Sub(s.epoch).Nanoseconds() }

// take returns the samples collected so far and starts a fresh slice. Call
// only when quiesced.
func (s *sink) take() []float64 {
	out := s.latMS
	s.latMS = nil
	return out
}

// segment is one slice of a phase: identical work in every run.
type segment struct {
	wall    time.Duration
	cpuNs   int64
	tuples  int
	results int64
	calibMS float64   // the reference burst run right after the segment
	latMS   []float64 // one per emission, when the phase records latency
	lateMS  []float64 // paced: how late each send ran
}

func (g segment) tuplesPerSec() float64 { return float64(g.tuples) / g.wall.Seconds() }
func (g segment) cpuUsPerTuple() float64 {
	return float64(g.cpuNs) / 1e3 / float64(g.tuples)
}

// repeat calls step until budget is spent, and at least min times.
func repeat(budget time.Duration, min int, step func()) {
	deadline := time.Now().Add(budget)
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		step()
	}
}

// measure runs offers as one segment: it records latencies, waits for the
// pipeline to drain, and brackets the work with CPU and result counters and
// the reference burst.
func (pp *pipe) measure(batches int, offers func(seg *segment)) segment {
	pp.sink.record.Store(true)
	res0 := pp.sink.tuples.Load()
	cpu0 := cpuNanos()
	seg := segment{tuples: batches * pp.r.spec.batch}
	t0 := time.Now()
	offers(&seg)
	pp.quiesce()
	seg.wall = time.Since(t0)
	seg.cpuNs = cpuNanos() - cpu0
	seg.results = pp.sink.tuples.Load() - res0
	pp.sink.record.Store(false)
	seg.latMS = pp.sink.take()
	seg.calibMS = calibrate()
	return seg
}

// closedSegment offers spec.segBatches batches back to back. At depth 1
// this is a serial segment: each Ingest returns only once the batch before
// it has left the pipeline.
func (pp *pipe) closedSegment() segment {
	n := pp.r.spec.segBatches
	return pp.measure(n, func(*segment) {
		for i := 0; i < n; i++ {
			pp.sink.stamp(pp.next, time.Now())
			pp.offerTraced()
		}
	})
}

// pacedSegment offers a tenth of a second of batches on a fixed schedule of
// spec.pacedRate batches per second, whether or not the pipeline keeps up,
// so every emission is timed from the moment its batch was due. Segments
// start with empty queues.
func (pp *pipe) pacedSegment() segment {
	rate := pp.r.spec.pacedRate
	n := int(rate / 10)
	interval := time.Duration(float64(time.Second) / rate)
	return pp.measure(n, func(seg *segment) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			due := t0.Add(time.Duration(i) * interval)
			waitUntil(due)
			seg.lateMS = append(seg.lateMS, math.Max(0, ms(time.Since(due))))
			pp.sink.stamp(pp.next, due)
			pp.offerTraced()
		}
	})
}

// waitUntil returns at t, not later: it sleeps while t is more than a
// millisecond away and yields in a loop from there. A sleeping generator on
// the sandbox wakes about 0.4 ms late, which would be most of the latency
// it is there to measure.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			// Yield to the pipeline's goroutines, then to its worker
			// processes: everything shares one CPU.
			runtime.Gosched()
			syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
	}
}

// Recovery cycles. The recovery pipeline checkpoints every recTicks ticks
// and crashes one node once per checkpoint period, at the same offset after
// the checkpoint every time: crashLead batches after it, down for
// crashBatches. Both edges keep crashMargin batches clear of every tick and
// checkpoint edge, so timestamp jitter cannot reorder a crash and a control
// edge.
const (
	recTicks     = 2
	crashLead    = 40
	crashBatches = 70
	crashMargin  = 30
	// maxCycles bounds the scripted plan; no budget reaches it.
	maxCycles = 1500
)

// recoveryPlan scripts maxCycles crash windows on node, the first in the
// checkpoint period after the warm-up ends.
func (s *spec) recoveryPlan(node int) *rld.FaultPlan {
	period := recTicks * s.tickEvery()
	per := 1 / s.batchesPerSecond()
	first := (s.warmCount()-phaseLead)/(recTicks*tickBatches) + 1
	fp := &rld.FaultPlan{Mode: rld.CheckpointRecovery, CheckpointEvery: period}
	for k := first; k < first+maxCycles; k++ {
		at := float64(k)*period + crashLead*per
		fp.Faults = append(fp.Faults, rld.Fault{Kind: rld.FaultCrash, Node: node, At: at, Until: at + crashBatches*per})
	}
	return fp
}

// crashNode is the node the recovery phase crashes: the one hosting the
// query's last join operator, so a recovery always has window state to
// restore.
func crashNode(dep *rld.Deployment) int {
	return dep.Physical.Assign[len(dep.Query.Ops)-1]
}

// cycle is one crash-and-recover: the Ingest calls that crossed the two
// edges, and the call after the recovery, which at depth 1 waits for the
// parked backlog to drain. calibMS is the reference burst run right after.
type cycle struct {
	crash, recover, catchup time.Duration
	calibMS                 float64
}

// recoveryCycle offers batches through the k-th scripted crash window of
// plan, from half a tick before its checkpoint period to half a tick before
// the next. ok is false when the crash or the recovery did not happen where
// the plan put them.
func (pp *pipe) recoveryCycle(plan *rld.FaultPlan, k int) (c cycle, ok bool) {
	f := pp.r.feed
	per := 1 / pp.r.spec.batchesPerSecond()
	w := plan.Faults[k]
	end := w.At - crashLead*per + plan.CheckpointEvery - phaseLead*per
	stage := 0 // 0 before the crash, 1 down, 2 recovered, 3 caught up
	for f.lastTs(pp.next) < end {
		ts := f.lastTs(pp.next)
		t0 := time.Now()
		pp.offerTraced()
		d := time.Since(t0)
		switch {
		case stage == 0 && ts >= w.At:
			c.crash, stage = d, 1
		case stage == 1 && ts >= w.Until:
			c.recover, stage = d, 2
		case stage == 2:
			c.catchup, stage = d, 3
		}
	}
	pp.quiesce()
	c.calibMS = calibrate()
	pp.r.attempted++
	if stage != 3 {
		pp.r.fail("recovery cycle %d ended in stage %d", k, stage)
		return c, false
	}
	return c, true
}

// newRun prepares a run of s with inputs generated from seed.
func newRun(ctx context.Context, s *spec, seed int64) (*run, error) {
	r := &run{spec: s, ctx: ctx, feed: newFeed(s, seed)}
	if s.durable {
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return nil, err
		}
		r.walDir = dir
	}
	return r, nil
}

// cleanup removes the run's write-ahead logs.
func (r *run) cleanup() {
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}
