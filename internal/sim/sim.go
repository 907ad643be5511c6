// Package sim is a discrete-event simulator of a distributed stream
// processing system: capacity-limited nodes serve batch work items that flow
// through a query's operators in logical-plan order, with support for
// operator migration (DYN), per-batch plan switching (RLD), and static
// placements (ROD). It replaces the paper's D-CAPE cluster (see DESIGN.md
// §5): virtual time makes a "60-minute run" (Figure 15b) complete in
// milliseconds while preserving the queueing behaviour — latency explosion
// at overload, migration pauses, bottleneck-limited throughput — that the
// §6.5 comparisons measure.
package sim

import (
	"container/heap"
	"fmt"

	"rld/internal/chaos"
	"rld/internal/cluster"
	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
)

// Scenario fixes the simulated workload: the query, the *actual* statistic
// trajectories (which the optimizer only knew as a parameter space), the
// cluster, and how its arrivals batch. The run length, control period and
// fault plan are the session's (runtime.SessionOptions), as on every
// substrate.
type Scenario struct {
	Query *query.Query
	// Rates holds the true input-rate profile per stream (tuples/sec).
	Rates map[string]gen.Profile
	// Sels holds the true selectivity profile per operator ID.
	Sels []gen.Profile
	// Cluster provides node capacities in cost-units/second.
	Cluster *cluster.Cluster
	// BatchSize is the batch ("ruster") size in tuples of Arrivals (Table
	// 2: 100).
	BatchSize int
	// MaxQueue bounds per-node queued work (cost-units); arriving batches
	// are shed at admission when the first node is beyond it. 0 disables.
	MaxQueue float64
	// CountWindows, when true, models tuple-count-bounded join windows
	// (Table 2's |Tdq| dequeue bound): probe cost is then independent of
	// the probed stream's rate, so total work scales linearly with input
	// rates instead of quadratically. The §6.5 experiments use this mode.
	CountWindows bool
	// Seed drives the jitter of Arrivals.
	Seed int64
}

// SelAt returns the true selectivity of operator op at time t.
func (sc *Scenario) SelAt(op int, t float64) float64 {
	if op < len(sc.Sels) && sc.Sels[op] != nil {
		v := sc.Sels[op].At(t)
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return sc.Query.Ops[op].Sel
}

// RateAt returns the true input rate of stream s at time t.
func (sc *Scenario) RateAt(s string, t float64) float64 {
	if p, ok := sc.Rates[s]; ok && p != nil {
		v := p.At(t)
		if v < 0 {
			return 0
		}
		return v
	}
	return sc.Query.Rates[s]
}

// rateFactor is the stream's true rate relative to the optimizer estimate
// (densifies time-based join windows, scaling probe cost). Count-bounded
// windows hold a fixed number of tuples, so the factor is 1.
func (sc *Scenario) rateFactor(s string, t float64) float64 {
	if sc.CountWindows {
		return 1
	}
	base := sc.Query.Rates[s]
	if base <= 0 {
		return 1
	}
	return sc.RateAt(s, t) / base
}

// TruthSels returns the true per-operator selectivities at t.
func (sc *Scenario) TruthSels(t float64) []float64 {
	out := make([]float64, len(sc.Query.Ops))
	for op := range out {
		out[op] = sc.SelAt(op, t)
	}
	return out
}

// TruthRates returns the true per-stream rates at t.
func (sc *Scenario) TruthRates(t float64) map[string]float64 {
	out := make(map[string]float64, len(sc.Query.Streams))
	for _, s := range sc.Query.Streams {
		out[s] = sc.RateAt(s, t)
	}
	return out
}

// event kinds.
const (
	evStageDone = iota
	evMigrationEnd
	evTick
	evFaultBegin
	evFaultEnd
)

type event struct {
	t    float64
	kind int
	// stream for an Arrivals event; node for evStageDone; op for
	// evMigrationEnd; fault indexes the fault plan for evFaultBegin/End.
	stream string
	node   int
	op     int
	fault  int
	// epoch stamps evStageDone with the node's crash epoch: a crash
	// voids the in-flight service completion by bumping the epoch.
	epoch int
	// poll marks an Arrivals event that only re-checks a zero-rate stream
	// and delivers no batch.
	poll bool
	seq  int64 // tie-break for determinism
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// batch is a ruster traversing the pipeline.
type batch struct {
	id      int64
	arrival float64
	plan    query.Plan
	tuples  float64
	stage   int
	carry   float64 // product of selectivities applied so far
}

// item is one batch×stage unit of work queued at a node.
type item struct {
	b    *batch
	op   int
	work float64
}

// node is a single-capacity FIFO server.
type node struct {
	id       int
	capacity float64
	queue    []*item
	busy     bool
	queued   float64 // total queued work incl. in-service remainder proxy
	serving  *item
	// down marks a crashed node: zero effective capacity until recovery.
	down      bool
	downSince float64
	// slow scales capacity in (0, 1] during a transient slowdown.
	slow float64
	// epoch counts crashes; stale evStageDone events (scheduled before a
	// crash interrupted the service) carry an older epoch and are ignored.
	epoch int
}

// Sim is one simulation run: an incremental discrete-event core that the
// Session advances batch by batch off ingested timestamps. All methods are
// single-goroutine; the Session serializes access.
type Sim struct {
	sc       *Scenario
	pol      runtime.Policy
	horizon  float64
	tick     float64 // control (Rebalance) period
	faults   *chaos.FaultPlan
	events   eventQueue
	seq      int64
	now      float64
	nodes    []*node
	assign   physical.Assignment
	paused   map[int]float64 // op → pause end time
	monitor  *stats.Monitor
	res      *runtime.Report
	latSum   float64 // Σ latency × tuples over completed batches, seconds
	latWt    float64 // Σ tuples over completed batches; see finish
	lastKey  string  // last batch plan key, for switch counting
	batchID  int64
	finished bool

	// out, when set, is the session's outbox: every completed batch's
	// (possibly fractional) result count, and plan switches, migrations,
	// and fault edges as runtime session events.
	out *runtime.Outbox
}

// newSim prepares a run of scenario sc under policy pol with the session's
// horizon, control period (default 5 s) and fault plan, primes its
// monitor, and books its control ticks and fault edges.
func newSim(sc *Scenario, pol runtime.Policy, opts runtime.SessionOptions) (*Sim, error) {
	if sc.Query == nil || sc.Cluster == nil {
		return nil, fmt.Errorf("sim: scenario needs a query and a cluster")
	}
	assign := pol.Placement()
	if assign == nil || !assign.Complete() {
		return nil, fmt.Errorf("sim: policy %s has no complete placement", pol.Name())
	}
	if err := opts.Faults.Validate(len(sc.Cluster.Nodes)); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Sim{
		sc:      sc,
		pol:     pol,
		horizon: opts.Horizon,
		tick:    opts.TickEvery,
		faults:  opts.Faults,
		assign:  assign.Clone(),
		paused:  make(map[int]float64),
		monitor: stats.NewMonitor(0.6, stats.Snapshot{}),
		res:     &runtime.Report{Policy: pol.Name(), Substrate: "sim", PlanUse: make(map[string]int64)},
	}
	if s.tick <= 0 {
		s.tick = 5
	}
	for _, n := range sc.Cluster.Nodes {
		s.nodes = append(s.nodes, &node{id: n.ID, capacity: n.Capacity, slow: 1})
	}
	// Prime the monitor with the t=0 truth (the paper's executor starts
	// with the compile-time estimates).
	s.monitor.Offer(0, sc.TruthSels(0), sc.TruthRates(0))
	s.push(&event{t: s.tick, kind: evTick})
	if !s.faults.Empty() {
		for i, f := range s.faults.Faults {
			s.push(&event{t: f.At, kind: evFaultBegin, fault: i})
			s.push(&event{t: f.Until, kind: evFaultEnd, fault: i})
		}
	}
	return s, nil
}

func (s *Sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// advanceTo processes every queued event up to and including virtual time
// target, then advances the clock to target. Recurring events (the
// control tick) re-book themselves, so the bound is what terminates the loop.
func (s *Sim) advanceTo(target float64) {
	for s.events.Len() > 0 {
		if s.events[0].t > target {
			break
		}
		e := heap.Pop(&s.events).(*event)
		s.now = e.t
		s.dispatch(e)
	}
	if target > s.now {
		s.now = target
	}
}

func (s *Sim) dispatch(e *event) {
	switch e.kind {
	case evStageDone:
		s.onStageDone(e.node, e.epoch)
	case evMigrationEnd:
		s.onMigrationEnd(e.op)
	case evTick:
		s.onSample()
		s.onTick()
		s.push(&event{t: s.now + s.tick, kind: evTick})
	case evFaultBegin:
		s.onFaultBegin(e.fault)
	case evFaultEnd:
		s.onFaultEnd(e.fault)
	}
}

// finish closes the run's books (idempotent): nodes still down at the end
// accrue downtime to the cut, and their frozen queues count as lost — the
// replay their recovery would have triggered never comes (the live engine
// likewise loses a still-down node's parked backlog at Stop). The cut is
// the horizon, or the clock's high-water mark when it ran past it.
func (s *Sim) finish() *runtime.Report {
	if s.finished {
		return s.res
	}
	s.finished = true
	end := max(s.horizon, s.now)
	for _, n := range s.nodes {
		if !n.down {
			continue
		}
		s.res.DownSeconds += end - n.downSince
		for _, it := range n.queue {
			s.loseItem(it)
		}
		n.queue = nil
		n.queued = 0
	}
	s.res.ProducedOverTime.Record(end, s.res.Produced)
	if s.latWt != 0 {
		s.res.MeanLatencyMS = s.latSum / s.latWt * 1000
	}
	return s.res
}

// loseItem accounts one batch×stage unit of work destroyed by a crash:
// the batch dies, taking its expected downstream output with it.
func (s *Sim) loseItem(it *item) {
	s.res.TuplesLost += it.b.tuples * it.b.carry
}

// recoveryMode returns the run's crash-recovery semantics: Checkpoint
// when no fault plan declares otherwise, so a node crashed outside any
// plan freezes its queue.
func (s *Sim) recoveryMode() chaos.RecoveryMode {
	if s.faults != nil {
		return s.faults.Mode
	}
	return chaos.Checkpoint
}

// crashNode takes a node down and reports whether it applied (false when
// already down): the queue is dropped (LoseState) or frozen (Checkpoint)
// and the in-flight service is voided via the epoch bump.
func (s *Sim) crashNode(nodeID int) bool {
	n := s.nodes[nodeID]
	if n.down {
		return false
	}
	n.down = true
	n.downSince = s.now
	// Void the in-flight service completion: its evStageDone carries
	// the old epoch.
	n.epoch++
	s.res.Crashes++
	if s.recoveryMode() == chaos.LoseState {
		if n.serving != nil {
			s.loseItem(n.serving)
		}
		for _, it := range n.queue {
			s.loseItem(it)
		}
		n.queue = nil
		n.queued = 0
	} else if n.serving != nil {
		// Checkpoint mode: the interrupted item restarts from scratch
		// on recovery; its work stays in the queued total.
		n.queue = append([]*item{n.serving}, n.queue...)
	}
	n.serving = nil
	n.busy = false
	s.out.Emit(runtime.Event{Kind: runtime.EventCrash, T: s.now, Node: nodeID, Op: -1})
	return true
}

// recoverNode brings a crashed node back and reports whether it applied:
// its frozen queue (Checkpoint mode) resumes service.
func (s *Sim) recoverNode(nodeID int) bool {
	n := s.nodes[nodeID]
	if !n.down {
		return false
	}
	n.down = false
	s.res.DownSeconds += s.now - n.downSince
	s.out.Emit(runtime.Event{Kind: runtime.EventRecovery, T: s.now, Node: nodeID, Op: -1})
	s.tryServe(n)
	return true
}

// slowNode sets a node's capacity factor (1 restores full speed).
// In-service work keeps its already-scheduled completion; only services
// started while slowed pay the factor.
func (s *Sim) slowNode(nodeID int, factor float64) {
	s.nodes[nodeID].slow = factor
	s.out.Emit(runtime.Event{Kind: runtime.EventSlowdown, T: s.now, Node: nodeID, Op: -1, Factor: factor})
}

// onFaultBegin applies the onset of fault i: a crash empties or freezes
// the node, a slowdown scales its capacity for newly started services.
func (s *Sim) onFaultBegin(i int) {
	f := s.faults.Faults[i]
	switch f.Kind {
	case chaos.Crash:
		s.crashNode(f.Node)
	case chaos.Slowdown:
		s.slowNode(f.Node, f.Factor)
	}
}

// onFaultEnd applies the end of fault i: recovery or return to full speed.
func (s *Sim) onFaultEnd(i int) {
	f := s.faults.Faults[i]
	switch f.Kind {
	case chaos.Crash:
		s.recoverNode(f.Node)
	case chaos.Slowdown:
		s.slowNode(f.Node, 1)
	}
}

// admit runs the per-batch admission protocol for tuples source tuples
// arriving now: classify to a plan, charge the classification overhead,
// apply admission control, account, and enqueue the first stage.
func (s *Sim) admit(tuples float64) {
	snap := s.monitor.Snapshot()
	plan := s.pol.PlanFor(s.now, snap)
	if plan == nil {
		return
	}
	// Classification overhead (RLD): charged to the coordinator and
	// accounted as runtime overhead (§6.5: ≈2% of execution cost).
	s.res.OverheadWork += s.pol.ClassifyOverhead()
	b := &batch{
		id:      s.batchID,
		arrival: s.now,
		plan:    plan,
		tuples:  tuples,
		carry:   1,
	}
	s.batchID++
	s.res.Ingested += b.tuples

	// Admission control: shed when the entry node is past MaxQueue.
	entry := s.assign[plan[0]]
	if s.sc.MaxQueue > 0 && s.nodes[entry].queued > s.sc.MaxQueue {
		s.res.Dropped += b.tuples
		return
	}
	// Batch/plan accounting covers admitted batches only, matching the
	// live engine (which has no admission shedding) so cross-substrate
	// Batches/PlanUse comparisons stay aligned under overload.
	k := plan.Key()
	s.res.PlanUse[k]++
	s.res.Batches++
	if k != s.lastKey {
		if s.lastKey != "" {
			s.res.PlanSwitches++
			s.out.Emit(runtime.Event{Kind: runtime.EventPlanSwitch, T: s.now, Node: -1, Op: -1, Plan: k})
		}
		s.lastKey = k
	}
	s.enqueueStage(b)
}

// stageWork computes the cost-units of batch b's current stage at time t.
func (s *Sim) stageWork(b *batch, t float64) float64 {
	op := b.plan[b.stage]
	o := s.sc.Query.Ops[op]
	f := 1.0
	if o.Stream != "" {
		f = s.sc.rateFactor(o.Stream, t)
	}
	return b.tuples * b.carry * o.Cost * f
}

func (s *Sim) enqueueStage(b *batch) {
	op := b.plan[b.stage]
	n := s.nodes[s.assign[op]]
	if n.down && s.recoveryMode() == chaos.LoseState {
		// Work routed to a dead node is lost outright; in Checkpoint mode
		// it queues and stalls until recovery instead.
		s.res.TuplesLost += b.tuples * b.carry
		return
	}
	it := &item{b: b, op: op, work: s.stageWork(b, s.now)}
	n.queue = append(n.queue, it)
	n.queued += it.work
	s.tryServe(n)
}

// tryServe starts the next servable item on an idle, live node.
func (s *Sim) tryServe(n *node) {
	if n.busy || n.down {
		return
	}
	for i, it := range n.queue {
		if end, ok := s.paused[it.op]; ok && end > s.now {
			continue // operator mid-migration: hold its items
		}
		n.queue = append(n.queue[:i], n.queue[i+1:]...)
		n.busy = true
		n.serving = it
		dur := it.work / (n.capacity * n.slow)
		s.push(&event{t: s.now + dur, kind: evStageDone, node: n.id, epoch: n.epoch})
		return
	}
}

func (s *Sim) onStageDone(nodeID int, epoch int) {
	n := s.nodes[nodeID]
	if epoch != n.epoch {
		// Completion of a service a crash interrupted: already handled at
		// the crash (lost or re-queued).
		return
	}
	it := n.serving
	n.serving = nil
	n.busy = false
	if it != nil {
		n.queued -= it.work
		if n.queued < 0 {
			n.queued = 0
		}
		s.res.QueryWork += it.work
		b := it.b
		b.carry *= s.sc.SelAt(it.op, s.now)
		b.stage++
		if b.stage >= len(b.plan) {
			out := b.tuples * b.carry
			s.res.Produced += out
			s.latSum += (s.now - b.arrival) * b.tuples
			s.latWt += b.tuples
			if out > 0 {
				s.out.Deliver(runtime.ResultBatch{T: s.now, Count: out})
			}
		} else {
			s.enqueueStage(b)
		}
	}
	s.tryServe(n)
}

func (s *Sim) onTick() {
	s.res.OverheadWork += s.pol.DecisionOverhead()
	loads := make([]float64, len(s.nodes))
	for i, n := range s.nodes {
		if n.down {
			// Crashed nodes report the +Inf sentinel so failure-aware
			// policies (DYN) can evacuate their operators.
			loads[i] = runtime.DownLoad
		} else {
			loads[i] = n.queued
		}
	}
	mig := s.pol.Rebalance(s.now, loads, s.assign.Clone())
	if mig == nil {
		return
	}
	s.applyMigration(mig)
}

// applyMigration validates and applies one migration request, reporting
// whether it took effect (out-of-range or same-node requests are no-ops).
func (s *Sim) applyMigration(mig *runtime.Migration) bool {
	if mig.Op < 0 || mig.Op >= len(s.assign) || mig.To < 0 || mig.To >= len(s.nodes) {
		return false
	}
	from := s.assign[mig.Op]
	if from == mig.To {
		return false
	}
	// Move queued items of the operator to the destination node; they
	// stay frozen until the migration completes.
	src, dst := s.nodes[from], s.nodes[mig.To]
	var kept []*item
	for _, it := range src.queue {
		if it.op == mig.Op {
			dst.queue = append(dst.queue, it)
			src.queued -= it.work
			dst.queued += it.work
		} else {
			kept = append(kept, it)
		}
	}
	src.queue = kept
	s.assign[mig.Op] = mig.To
	dt := mig.Downtime
	if dt < 0 {
		dt = 0
	}
	s.paused[mig.Op] = s.now + dt
	s.res.Migrations++
	s.res.MigrationDowntime += dt
	s.out.Emit(runtime.Event{Kind: runtime.EventMigration, T: s.now, Node: mig.To, Op: mig.Op})
	s.push(&event{t: s.now + dt, kind: evMigrationEnd, op: mig.Op})
	s.tryServe(src)
	return true
}

func (s *Sim) onMigrationEnd(op int) {
	delete(s.paused, op)
	s.tryServe(s.nodes[s.assign[op]])
}

// onSample is the monitor's sample, taken at every control tick ahead of the
// policy's decision: it offers the true statistics and records the produced
// timeline.
func (s *Sim) onSample() {
	s.monitor.Offer(s.now, s.sc.TruthSels(s.now), s.sc.TruthRates(s.now))
	s.res.ProducedOverTime.Record(s.now, s.res.Produced)
}
