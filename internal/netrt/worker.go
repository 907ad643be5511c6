package netrt

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"rld/internal/engine"
	"rld/internal/query"
	"rld/internal/stream"
	"rld/internal/wire"
)

// setupMsg is the Welcome payload: everything a worker needs to build its
// NodeCore. JSON keeps the handshake debuggable and sidesteps hand-rolled
// encoding for the one message that is not on the hot path.
type setupMsg struct {
	Query  *query.Query
	Config engine.Config
	// StageChunk is the leader's soft bound on one stage frame's partials
	// payload; the worker splits larger stage replies into frameStagePart
	// continuations under the same bound.
	StageChunk int
}

// RunWorker connects to the leader, performs the handshake, builds the
// node's operator state, and serves stage/insert/snapshot requests until a
// Quit frame or connection loss. The loop is single-threaded — one request
// at a time per worker, matching the leader's one router goroutine per node —
// so NodeCore sees no concurrency beyond what the engine's shard locks
// already absorb.
//
// The returned error is nil only for a clean Quit. Losing the connection
// without a Quit (the leader died, or this worker is about to be SIGKILLed
// and lost a race with the conn teardown) is an error: the process exits
// nonzero and, because the conn is gone, can never outlive its leader as
// an orphan.
func RunWorker(leaderAddr string, node int, epoch uint64) error {
	conn, err := net.DialTimeout("tcp", leaderAddr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("netrt: dial leader %s: %w", leaderAddr, err)
	}
	wc := newWireConn(conn)
	defer wc.Close()
	if err := wc.writeFrame(frameHello, encodeHello(node, epoch)); err != nil {
		return fmt.Errorf("netrt: hello: %w", err)
	}
	t, payload, err := wc.readFrame()
	if err != nil {
		return fmt.Errorf("netrt: handshake: %w", err)
	}
	switch t {
	case frameWelcome:
	case frameError:
		return decodeError(payload)
	default:
		return fmt.Errorf("%w: unexpected handshake frame %d", ErrBadFrame, t)
	}
	var setup setupMsg
	if err := json.Unmarshal(payload, &setup); err != nil {
		return fmt.Errorf("%w: setup: %v", ErrBadFrame, err)
	}
	core, err := engine.NewNodeCore(setup.Query, setup.Config)
	if err != nil {
		return fmt.Errorf("netrt: setup: %w", err)
	}
	chunk := setup.StageChunk
	if chunk <= 0 {
		chunk = DefaultStageChunk
	}
	return serve(wc, core, chunk)
}

// serve is the worker request loop: read a request, answer it, until Quit.
// A request that cannot be answered is answered with an error frame — the
// one place one is written — and ends the worker: the leader treats any
// failed call as the node's death.
func serve(wc *wireConn, core *engine.NodeCore, chunk int) error {
	var reply wire.Enc
	for {
		t, payload, err := wc.readFrame()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("%w: leader closed connection without quit", ErrTruncatedFrame)
			}
			return err
		}
		if t == frameQuit {
			return nil
		}
		reply.B = reply.B[:0]
		rt, err := respond(wc, core, chunk, t, wire.Dec{B: payload}, &reply)
		if err != nil {
			wc.writeError(err)
			return err
		}
		if err := wc.writeFrame(rt, reply.B); err != nil {
			return err
		}
	}
}

// respond executes one request against the node's operator state and
// returns the type of the reply frame, its payload written to reply. A
// stage's reply may run to several frames; all but the last are written
// here.
func respond(wc *wireConn, core *engine.NodeCore, chunk int, t frameType, d wire.Dec, reply *wire.Enc) (frameType, error) {
	sch := core.Schema()
	switch t {
	case frameInsert:
		nOps := int(d.U16())
		ops := make([]int, 0, nOps)
		for i := 0; i < nOps; i++ {
			ops = append(ops, int(d.U16()))
		}
		b, err := wire.DecodeBatch(&d)
		if err != nil {
			return 0, err
		}
		for _, op := range ops {
			if err := core.Insert(op, b); err != nil {
				return 0, err
			}
		}
		return frameOK, nil
	case frameStage:
		op := int(d.U16())
		if op >= core.NumOps() {
			return 0, fmt.Errorf("%w: stage op %d", ErrBadFrame, op)
		}
		partials, err := decodePartials(&d, sch, core.NewPartials())
		if err != nil {
			core.ReleasePartials(partials)
			return 0, err
		}
		// The loop is single-threaded, so the counters move by this stage
		// alone: their difference is its own counts.
		in0, out0 := core.SelCounters(op)
		out, err := core.ProcessStage(op, partials)
		if err != nil {
			return 0, err
		}
		defer core.ReleasePartials(out)
		in1, out1 := core.SelCounters(op)
		// Join fanout can multiply the input far past MaxFrame, so the
		// reply is split: every segment but the last travels as a
		// frameStagePart, and the final frameStageResult carries the
		// stage's selectivity counts plus the tail segment.
		segs := splitPartials(sch, out, chunk)
		for ; len(segs) > 1; segs = segs[1:] {
			reply.B = reply.B[:0]
			encodePartials(reply, sch, segs[0])
			if err := wc.writeFrame(frameStagePart, reply.B); err != nil {
				return 0, err
			}
		}
		var tail []*stream.Joined
		if len(segs) == 1 {
			tail = segs[0]
		}
		reply.B = reply.B[:0]
		reply.I64(in1 - in0)
		reply.I64(out1 - out0)
		encodePartials(reply, sch, tail)
		return frameStageResult, nil
	case frameSnapshot:
		op := int(d.U16())
		if d.Err != nil {
			return 0, d.Err
		}
		if op < 0 || op >= core.NumOps() {
			return 0, fmt.Errorf("%w: snapshot op %d", ErrBadFrame, op)
		}
		if b := core.SnapshotOp(op); b != nil {
			reply.U8(1)
			wire.EncodeBatch(reply, b)
		} else {
			reply.U8(0)
		}
		return frameSnapshotResult, nil
	case frameRestore:
		op := int(d.U16())
		hasBatch := d.U8()
		if op < 0 || op >= core.NumOps() || d.Err != nil {
			return 0, fmt.Errorf("%w: restore op %d", ErrBadFrame, op)
		}
		var snap *stream.Batch
		if hasBatch == 1 {
			var err error
			if snap, err = wire.DecodeBatch(&d); err != nil {
				return 0, err
			}
		}
		core.RestoreOp(op, snap)
		return frameOK, nil
	case framePing:
		return framePong, nil
	default:
		return 0, fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, t)
	}
}
