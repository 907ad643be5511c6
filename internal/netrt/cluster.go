package netrt

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"rld/internal/chaos"
	"rld/internal/engine"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stream"
	"rld/internal/wire"
)

// ClusterConfig tunes the leader.
type ClusterConfig struct {
	// Engine is the router's configuration, shipped to every worker for its
	// operator state (threshold scale, fanout cap; a WAL directory reaches
	// workers only as the switch for insert-time dedup — the log is the
	// router's). Workers is ignored: the leader's router runs one goroutine
	// per node, and each worker process keeps one window per operator.
	Engine engine.Config
	// WorkerCommand, when non-empty, is the argv prefix used to launch
	// worker processes (it receives -leader/-node/-epoch flags) — the
	// cmd/rldworker binary in CI. Empty re-execs the current binary with
	// RLD_NETRT_WORKER set, which MaybeWorker intercepts.
	WorkerCommand []string
	// ListenAddr is the leader's listen address (default "127.0.0.1:0").
	ListenAddr string

	// stageChunk is the soft bound on one stage frame's partials payload in
	// bytes (default DefaultStageChunk), a seam for tests. Larger hops are
	// split across multiple frames in both directions, so join fanout can
	// grow a logical hop past MaxFrame without poisoning the connection.
	stageChunk int
}

const (
	// heartbeatEvery is the liveness-probe period.
	heartbeatEvery = 500 * time.Millisecond
	// callTimeout bounds every worker RPC; a worker that does not answer
	// within it is treated as dead, so a hung process degrades to a
	// detected crash instead of a stuck pipeline.
	callTimeout = 60 * time.Second
	// startupTimeout bounds worker spawn + handshake.
	startupTimeout = 30 * time.Second
)

func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.stageChunk <= 0 {
		cfg.stageChunk = DefaultStageChunk
	}
	return cfg
}

// workerProc is the leader's view of one worker process: its OS process
// and connection. Whether the node is down, what is queued for it and what
// is parked is the router's business (engine.Engine); a nil wc is all the
// transport needs to refuse a call.
type workerProc struct {
	node int

	// callMu serializes RPC use of the connection (one request/response
	// in flight per worker, matching the worker's single-threaded loop).
	callMu sync.Mutex
	// enc is the request scratch, reused under callMu; it retains at most
	// one stage chunk.
	enc wire.Enc

	mu sync.Mutex // guards everything below
	// gen is the router's incarnation number for the process in proc; a
	// failure observed on it is reported under that number, so it cannot
	// take down a respawn.
	gen      uint64
	proc     *os.Process
	procDone <-chan struct{}
	// wc is the live connection, nil from Kill until Restart.
	wc *wireConn
}

// acceptedConn is one handshaken worker connection delivered by the accept
// loop to whoever is waiting (NewCluster's collector or Restart).
type acceptedConn struct {
	node int
	wc   *wireConn
}

// Cluster is the leader: an engine.Engine — the router every live
// substrate shares — over the multi-process engine.Transport this type
// implements. Each node is a worker process owning its operators' window
// state (an engine.NodeCore behind the wire protocol). The embedded Engine
// owns routing, placement, classification, statistics, queues and the
// failure state, the checkpoint and the write-ahead log, and is what callers
// drive (Start, Ingest, Crash, Recover, Stop, …; engine.OpenSessionOn layers
// the session protocol on it, so RLD/ROD/DYN run unchanged over real
// processes). The Cluster's own methods are the transport: the RPCs, the
// process lifecycle, and failure detection.
type Cluster struct {
	*engine.Engine

	q   *query.Query
	cfg ClusterConfig

	// core is the router's NodeCore: the join schema (and its result
	// pool), validated, normalized config, and the selectivity counters
	// RunStage adds each remote stage's counts to. Its windows are never
	// inserted into — all window state lives in the workers.
	core *engine.NodeCore

	workers []*workerProc
	epoch   uint64
	setup   []byte // marshaled Welcome payload
	ln      net.Listener

	connCh    chan acceptedConn
	earlyDead chan int

	hbQuit chan struct{}
	hbDone chan struct{}
}

var _ engine.Transport = (*Cluster)(nil)

// NewCluster spawns nNodes worker processes, waits for their handshakes,
// and returns a leader ready for engine.OpenSessionOn. On error everything
// spawned or opened is released. The cluster is not started — Start launches
// the router's pools; only the heartbeat already runs.
func NewCluster(q *query.Query, assign physical.Assignment, nNodes int, cfg ClusterConfig) (*Cluster, error) {
	// One router goroutine per node: a worker process serves one request
	// at a time (callMu), so a second would only wait on the first, and
	// one keeps a node's hops in arrival order.
	cfg.Engine.Workers = 1
	core, err := engine.NewNodeCore(q, cfg.Engine)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		q:         q,
		cfg:       cfg,
		core:      core,
		epoch:     uint64(time.Now().UnixNano())<<8 | uint64(os.Getpid()&0xff), //rldlint:allow wallclock -- epoch fencing needs a host-unique monotone seed
		connCh:    make(chan acceptedConn, nNodes),
		earlyDead: make(chan int, nNodes),
		hbQuit:    make(chan struct{}),
		hbDone:    make(chan struct{}),
	}
	c.setup, err = json.Marshal(setupMsg{Query: q, Config: core.Config(), StageChunk: cfg.stageChunk})
	if err != nil {
		return nil, fmt.Errorf("netrt: marshal setup: %w", err)
	}
	c.ln, err = net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("netrt: listen: %w", err)
	}
	for i := 0; i < nNodes; i++ {
		c.workers = append(c.workers, &workerProc{node: i})
	}
	// The router exists before the first process does: a worker's exit is
	// reported to it from the moment it is spawned. It may hold an open
	// write-ahead log, so every failure from here on stops it — which closes
	// this transport, and with it the loops below and whatever was spawned.
	if c.Engine, err = engine.NewOn(core, c, assign, nNodes, nil); err != nil {
		c.ln.Close()
		return nil, err
	}
	// The loops start only after the workers slice is fully built: they
	// read it unsynchronized (it is immutable once spawning begins).
	go c.acceptLoop()
	go c.heartbeatLoop()
	for i := 0; i < nNodes; i++ {
		if err := c.spawnInto(c.workers[i], 0); err != nil {
			c.Stop()
			return nil, err
		}
	}
	// Collect every worker's handshake; any premature exit fails startup
	// immediately instead of waiting out the timeout.
	deadline := time.After(startupTimeout) //rldlint:allow wallclock -- startup handshake deadline is real elapsed time
	have := 0
	for have < nNodes {
		select {
		case ac := <-c.connCh:
			wp := c.workers[ac.node]
			wp.mu.Lock()
			if wp.wc != nil {
				wp.mu.Unlock()
				ac.wc.Close()
				continue
			}
			wp.wc = ac.wc
			wp.mu.Unlock()
			have++
		case node := <-c.earlyDead:
			c.Stop()
			return nil, fmt.Errorf("%w: worker %d exited during startup", ErrWorkerDown, node)
		case <-deadline:
			c.Stop()
			return nil, fmt.Errorf("%w: %d of %d worker handshakes outstanding", ErrStartupTimeout, nNodes-have, nNodes)
		}
	}
	return c, nil
}

// Addr returns the leader's listen address (tests dial it directly to
// exercise handshake rejection).
func (c *Cluster) Addr() string { return c.ln.Addr().String() }

// spawnInto launches a fresh worker process for wp's node as the router's
// incarnation gen. Caller guarantees no RPC is running against wp.
func (c *Cluster) spawnInto(wp *workerProc, gen uint64) error {
	node := wp.node
	cmd, done, err := spawnWorker(c.cfg.WorkerCommand, c.Addr(), node, c.epoch, func() {
		c.onWorkerExit(node, gen)
	})
	if err != nil {
		return err
	}
	wp.mu.Lock()
	wp.gen = gen
	wp.proc = cmd.Process
	wp.procDone = done
	wp.mu.Unlock()
	return nil
}

// acceptLoop admits worker connections until the listener closes. Each
// connection is handshaken on its own goroutine so one stale or hostile
// dialer cannot block real workers.
func (c *Cluster) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handshake(conn)
	}
}

// handshake validates one inbound Hello. Every rejection is answered with
// a typed error frame before closing: a worker from a previous leader
// incarnation (stale epoch), a version-skewed worker, or garbage each get
// a precise refusal instead of a hang.
func (c *Cluster) handshake(conn net.Conn) {
	wc := newWireConn(conn)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	t, payload, err := wc.readFrame()
	if err != nil {
		wc.writeError(err)
		wc.Close()
		return
	}
	if t != frameHello {
		wc.writeError(fmt.Errorf("%w: expected hello, got frame %d", ErrBadFrame, t))
		wc.Close()
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		wc.writeError(err)
		wc.Close()
		return
	}
	if h.epoch != c.epoch {
		wc.writeError(fmt.Errorf("%w: worker epoch %d, leader epoch %d", ErrStaleEpoch, h.epoch, c.epoch))
		wc.Close()
		return
	}
	if h.node < 0 || h.node >= len(c.workers) {
		wc.writeError(fmt.Errorf("%w: node %d out of range", ErrBadFrame, h.node))
		wc.Close()
		return
	}
	if err := wc.writeFrame(frameWelcome, c.setup); err != nil {
		wc.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	select {
	case c.connCh <- acceptedConn{node: h.node, wc: wc}:
	default:
		wc.Close()
	}
}

// heartbeatLoop pings every live worker on a period; a worker that cannot
// answer (dead process, broken pipe, hung loop past the call timeout) is
// marked down exactly as an unexpected process exit would be.
func (c *Cluster) heartbeatLoop() {
	defer close(c.hbDone)
	tick := time.NewTicker(heartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.hbQuit:
			return
		case <-tick.C:
		}
		for _, wp := range c.workers {
			_, _ = c.call(wp, framePing, nil, framePong) // a failure has marked the worker down; nothing else to do
		}
	}
}

// onWorkerExit runs when a worker process is reaped. An exit the leader
// did not cause is a real failure: the node is marked down in Checkpoint
// mode, parking its work for a scripted or manual Recover. One the leader
// did cause — Crash, a failed Recover, Close — finds the node already down
// or the incarnation retired, and is ignored. During NewCluster it also
// fails the startup.
func (c *Cluster) onWorkerExit(node int, gen uint64) {
	select {
	case c.earlyDead <- node:
	default: // nobody collects after startup
	}
	c.MarkDown(node, gen, chaos.Checkpoint)
}

// Kill implements engine.Transport: a literal SIGKILL of the node's worker
// process, its connection severed first so a stage RPC in flight returns
// at once, and the process reaped before Kill returns.
func (c *Cluster) Kill(node int) {
	wp := c.workers[node]
	wp.mu.Lock()
	wc, proc, done := wp.wc, wp.proc, wp.procDone
	wp.wc = nil
	wp.mu.Unlock()
	if wc != nil {
		wc.Close()
	}
	if proc != nil {
		_ = proc.Kill()
	}
	if done != nil {
		<-done
	}
}

// send writes one t request on wp's live connection — ErrWorkerDown if it
// has none — with the call timeout armed; request, when not nil, writes the
// payload into the worker's scratch. It returns the connection and the
// incarnation it serves. Caller holds wp.callMu.
func (wp *workerProc) send(t frameType, request func(*wire.Enc)) (*wireConn, uint64, error) {
	wp.mu.Lock()
	wc, gen := wp.wc, wp.gen
	wp.mu.Unlock()
	if wc == nil {
		return nil, gen, ErrWorkerDown
	}
	wp.enc.B = wp.enc.B[:0]
	if request != nil {
		request(&wp.enc)
	}
	wc.c.SetDeadline(time.Now().Add(callTimeout))
	return wc, gen, wc.writeFrame(t, wp.enc.B)
}

// reply reads the answer to the request just sent on wc, which must be a
// want frame.
func reply(wc *wireConn, want frameType) ([]byte, error) {
	rt, rp, err := wc.readFrame()
	if err != nil {
		return nil, err
	}
	if rt == frameError {
		return nil, decodeError(rp)
	}
	if rt != want {
		return nil, fmt.Errorf("%w: want frame %d, got frame %d", ErrBadFrame, want, rt)
	}
	// The payload aliases the conn's scratch; copy so decoding can
	// outlive the call mutex.
	return append([]byte(nil), rp...), nil
}

// call performs one RPC against wp's live connection; request, when not nil,
// writes the payload into the worker's scratch. A worker that fails the
// call — anything but ErrWorkerDown, which says the router already knows —
// is reported down under the generation the call used.
func (c *Cluster) call(wp *workerProc, t frameType, request func(*wire.Enc), want frameType) ([]byte, error) {
	wp.callMu.Lock()
	wc, gen, err := wp.send(t, request)
	var rp []byte
	if err == nil {
		rp, err = reply(wc, want)
	}
	wp.callMu.Unlock()
	if err != nil && !errors.Is(err, ErrWorkerDown) {
		c.MarkDown(wp.node, gen, chaos.Checkpoint)
	}
	return rp, err
}

// RunStage implements engine.Transport: one logical stage on node's worker
// — serialize the partials, execute remotely, decode the survivors and the
// stage's own selectivity counts. A hop whose partials exceed the stage
// chunk bound is issued as several stage RPCs whose counts add up. The
// input stays whole leader-side, and nothing is counted, until every chunk
// succeeds: a failed hop is parked or destroyed whole by the router, and a
// parked one runs again after Recover.
func (c *Cluster) RunStage(node, op int, in []*stream.Joined) ([]*stream.Joined, error) {
	chunks := splitPartials(c.core.Schema(), in, c.cfg.stageChunk)
	if chunks == nil {
		chunks = [][]*stream.Joined{nil} // empty hop still runs the stage
	}
	out := c.core.NewPartials()
	var sel [2]int64 // the hop's examined/passed counts, summed over its chunks
	for _, ch := range chunks {
		var err error
		if out, err = c.callStageChunk(c.workers[node], op, ch, out, &sel); err != nil {
			c.core.ReleasePartials(out)
			return nil, err
		}
	}
	c.core.ReleasePartials(in)
	c.core.AddSelCounters(op, sel[0], sel[1])
	return out, nil
}

// callStageChunk performs one stage RPC, appends the decoded survivors to
// dst and adds the chunk's counts to sel. The reply may span several
// frames — frameStagePart continuations followed by the frameStageResult
// that carries the counts — each individually bounded, so the exchange
// never builds a frame proportional to the hop's total fanout. Always
// returns dst (with whatever was appended) so the caller can release pooled
// partials on error.
func (c *Cluster) callStageChunk(wp *workerProc, op int, ps, dst []*stream.Joined, sel *[2]int64) ([]*stream.Joined, error) {
	sch := c.core.Schema()
	wp.callMu.Lock()
	defer wp.callMu.Unlock()
	wc, _, err := wp.send(frameStage, func(e *wire.Enc) {
		e.U16(uint16(op))
		encodePartials(e, sch, ps)
	})
	if err != nil {
		return dst, err
	}
	for {
		// Re-arm per frame: a many-part reply is alive as long as frames
		// keep landing within the call timeout.
		wc.c.SetDeadline(time.Now().Add(callTimeout))
		t, payload, err := wc.readFrame()
		if err != nil {
			return dst, err
		}
		d := wire.Dec{B: payload}
		switch t {
		case frameStagePart:
			if dst, err = decodePartials(&d, sch, dst); err != nil {
				return dst, err
			}
		case frameStageResult:
			sel[0] += d.I64()
			sel[1] += d.I64()
			return decodePartials(&d, sch, dst)
		case frameError:
			return dst, decodeError(payload)
		default:
			return dst, fmt.Errorf("%w: want stage result, got frame %d", ErrBadFrame, t)
		}
	}
}

// Insert implements engine.Transport: one Insert RPC carrying the batch's
// columns straight onto the wire, so the batch crosses once per node, not
// once per operator.
func (c *Cluster) Insert(node int, ops []int, b *stream.Batch) error {
	_, err := c.call(c.workers[node], frameInsert, func(e *wire.Enc) {
		e.U16(uint16(len(ops)))
		for _, op := range ops {
			e.U16(uint16(op))
		}
		wire.EncodeBatch(e, b)
	}, frameOK)
	return err
}

// MoveOp implements engine.Transport. Unlike the in-process engine, where
// operator state is shared memory and migration is a pure routing-table
// swap, moving an operator here transfers its window state: snapshot on
// the old worker, restore on the new.
func (c *Cluster) MoveOp(op, from, to int) error {
	if c.q.Ops[op].Kind != query.Join {
		return nil
	}
	snap, err := c.SnapshotOp(from, op)
	if err != nil {
		return err
	}
	_ = c.RestoreOp(to, op, snap) // a failed target is marked down and rebuilt at its Recover
	return nil
}

// SnapshotOp implements engine.Transport: pull op's live window state from
// node's worker into leader memory.
func (c *Cluster) SnapshotOp(node, op int) (*stream.Batch, error) {
	payload, err := c.call(c.workers[node], frameSnapshot, func(e *wire.Enc) { e.U16(uint16(op)) }, frameSnapshotResult)
	if err != nil {
		return nil, err
	}
	d := wire.Dec{B: payload}
	if d.U8() != 1 {
		return nil, d.Err // a stateless operator has nothing to snapshot
	}
	return wire.DecodeBatch(&d)
}

// RestoreOp implements engine.Transport: ship snap to node's worker in
// place of op's window state (nil clears it).
func (c *Cluster) RestoreOp(node, op int, snap *stream.Batch) error {
	_, err := c.call(c.workers[node], frameRestore, func(e *wire.Enc) {
		e.U16(uint16(op))
		if snap != nil {
			e.U8(1)
			wire.EncodeBatch(e, snap)
		} else {
			e.U8(0)
		}
	}, frameOK)
	return err
}

// Restart implements engine.Transport: respawn the worker process — empty,
// as a fresh process is — and install its connection. The router still
// holds the node down, so nothing but its restores and replayed inserts
// reaches the process until it says otherwise.
func (c *Cluster) Restart(node int, gen uint64) error {
	wp := c.workers[node]
	if err := c.spawnInto(wp, gen); err != nil {
		return err
	}
	wc, err := c.awaitWorker(node)
	if err != nil {
		c.Kill(node)
		return err
	}
	wp.mu.Lock()
	wp.wc = wc
	wp.mu.Unlock()
	return nil
}

// awaitWorker waits for the accept loop to deliver node's handshaken
// connection.
func (c *Cluster) awaitWorker(node int) (*wireConn, error) {
	deadline := time.After(startupTimeout)
	for {
		select {
		case ac := <-c.connCh:
			if ac.node == node {
				return ac.wc, nil
			}
			ac.wc.Close()
		case <-deadline:
			return nil, fmt.Errorf("%w: worker %d handshake outstanding", ErrStartupTimeout, node)
		}
	}
}

// Close implements engine.Transport: the router has drained and stopped —
// or NewCluster failed — so stop the heartbeat, end every worker process and
// close the listener. A worker with a live connection is asked to quit and
// given a moment to; the rest, and any that dawdle, are killed.
func (c *Cluster) Close() {
	close(c.hbQuit)
	<-c.hbDone
	for _, wp := range c.workers {
		wp.mu.Lock()
		proc, done, wc := wp.proc, wp.procDone, wp.wc
		wp.wc = nil
		wp.mu.Unlock()
		asked := false
		if wc != nil {
			wp.callMu.Lock()
			asked = wc.writeFrame(frameQuit, nil) == nil
			wp.callMu.Unlock()
		}
		if proc != nil && !asked {
			_ = proc.Kill()
		}
		if done != nil {
			select {
			case <-done:
			case <-time.After(5 * time.Second): //rldlint:allow wallclock -- shutdown drain bound on a real child process
				_ = proc.Kill()
				<-done
			}
		}
		if wc != nil {
			wc.Close()
		}
	}
	c.ln.Close()
}
