package netrt

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"rld/internal/engine"
	"rld/internal/query"
	"rld/internal/stream"
	"rld/internal/wal"
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
	// Durable mode: this node's WAL lives in a per-cluster, per-node
	// directory keyed by the leader's epoch, so a respawned incarnation of
	// the same node finds (and replays) the log its predecessor fsync'd
	// before being SIGKILLed, while a different cluster run in the same
	// WALDir cannot collide.
	var wlog *wal.Log
	if setup.Config.WALDir != "" {
		dir := filepath.Join(setup.Config.WALDir, fmt.Sprintf("cluster-%d", epoch), fmt.Sprintf("node-%d", node))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("%w: %v", wal.ErrWALDir, err)
		}
		if wlog, err = wal.Open(dir); err != nil {
			return err
		}
		defer wlog.Close()
	}
	return serve(wc, core, chunk, wlog)
}

// serve is the worker request loop. wlog, non-nil only in durable mode,
// is the node's local write-ahead log: inserts are logged and fsync'd
// before they touch window state, so the log always covers at least what
// the windows hold and a SIGKILL at any instant loses nothing the leader
// saw acknowledged.
func serve(wc *wireConn, core *engine.NodeCore, chunk int, wlog *wal.Log) error {
	sch := core.Schema()
	var reply wire.Enc
	for {
		t, payload, err := wc.readFrame()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("%w: leader closed connection without quit", ErrTruncatedFrame)
			}
			return err
		}
		d := wire.Dec{B: payload}
		reply.B = reply.B[:0]
		switch t {
		case frameInsert:
			nOps := int(d.U16())
			ops := make([]int, 0, nOps)
			for i := 0; i < nOps; i++ {
				ops = append(ops, int(d.U16()))
			}
			b, derr := wire.DecodeBatch(&d)
			if derr != nil {
				wc.writeError(derr)
				return derr
			}
			// Log before apply: once the leader sees the OK, the insert is
			// on disk; a crash before the OK leaves the leader retaining
			// the batch for re-offer, and the insert-time dedup absorbs
			// the overlap if both survived.
			if wlog != nil {
				lerr := wlog.Append(wal.Record{Ops: ops, Batch: b})
				if lerr == nil {
					lerr = wlog.Sync()
				}
				if lerr != nil {
					wc.writeError(lerr)
					return lerr
				}
			}
			for _, op := range ops {
				if err := core.Insert(op, b); err != nil {
					wc.writeError(err)
					return err
				}
			}
			if err := wc.writeFrame(frameOK, nil); err != nil {
				return err
			}
		case frameStage:
			op := int(d.U16())
			partials, derr := decodePartials(&d, sch, core.NewPartials())
			if derr != nil {
				core.ReleasePartials(partials)
				wc.writeError(derr)
				return derr
			}
			out, perr := core.ProcessStage(op, partials)
			if perr != nil {
				wc.writeError(perr)
				return perr
			}
			selIn, selOut := core.SelCounters(op)
			// Join fanout can multiply the input far past MaxFrame, so the
			// reply is split: every segment but the last travels as a
			// frameStagePart, and the final frameStageResult carries the
			// selectivity counters plus the tail segment.
			segs := splitPartials(sch, out, chunk)
			for len(segs) > 1 {
				reply.B = reply.B[:0]
				encodePartials(&reply, sch, segs[0])
				if err := wc.writeFrame(frameStagePart, reply.B); err != nil {
					core.ReleasePartials(out)
					return err
				}
				segs = segs[1:]
			}
			var tail []*stream.Joined
			if len(segs) == 1 {
				tail = segs[0]
			}
			reply.B = reply.B[:0]
			reply.I64(selIn)
			reply.I64(selOut)
			encodePartials(&reply, sch, tail)
			core.ReleasePartials(out)
			if err := wc.writeFrame(frameStageResult, reply.B); err != nil {
				return err
			}
		case frameSnapshot:
			op := int(d.U16())
			if d.Err != nil {
				wc.writeError(d.Err)
				return d.Err
			}
			if op < 0 || op >= core.NumOps() {
				err := fmt.Errorf("%w: snapshot op %d", ErrBadFrame, op)
				wc.writeError(err)
				return err
			}
			if b := core.SnapshotOp(op); b != nil {
				reply.U8(1)
				wire.EncodeBatch(&reply, b)
			} else {
				reply.U8(0)
			}
			if err := wc.writeFrame(frameSnapshotResult, reply.B); err != nil {
				return err
			}
		case frameRestore:
			op := int(d.U16())
			hasBatch := d.U8()
			if op < 0 || op >= core.NumOps() || d.Err != nil {
				err := fmt.Errorf("%w: restore op %d", ErrBadFrame, op)
				wc.writeError(err)
				return err
			}
			if hasBatch == 1 {
				snap, derr := wire.DecodeBatch(&d)
				if derr != nil {
					wc.writeError(derr)
					return derr
				}
				core.RestoreOp(op, snap)
			} else {
				core.RestoreOp(op, nil)
			}
			if err := wc.writeFrame(frameOK, nil); err != nil {
				return err
			}
		case frameWALBarrier:
			if wlog == nil {
				err := fmt.Errorf("%w: wal barrier on non-durable worker", ErrBadFrame)
				wc.writeError(err)
				return err
			}
			if err := wlog.Barrier(); err != nil {
				wc.writeError(err)
				return err
			}
			if err := wc.writeFrame(frameOK, nil); err != nil {
				return err
			}
		case frameWALMark:
			if wlog == nil {
				err := fmt.Errorf("%w: wal mark on non-durable worker", ErrBadFrame)
				wc.writeError(err)
				return err
			}
			if err := wlog.Truncate(); err != nil {
				wc.writeError(err)
				return err
			}
			if err := wc.writeFrame(frameOK, nil); err != nil {
				return err
			}
		case frameWALReplay:
			if wlog == nil {
				err := fmt.Errorf("%w: wal replay on non-durable worker", ErrBadFrame)
				wc.writeError(err)
				return err
			}
			// Re-insert everything the retained log covers; records the
			// restored snapshot already holds dedup to nothing.
			var count uint64
			rerr := wlog.Replay(func(r wal.Record) error {
				for _, op := range r.Ops {
					if err := core.Insert(op, r.Batch); err != nil {
						return err
					}
				}
				count += uint64(r.Batch.Len())
				return nil
			})
			if rerr != nil {
				wc.writeError(rerr)
				return rerr
			}
			reply.U64(count)
			if err := wc.writeFrame(frameOK, reply.B); err != nil {
				return err
			}
		case framePing:
			if err := wc.writeFrame(framePong, nil); err != nil {
				return err
			}
		case frameQuit:
			return nil
		default:
			err := fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, t)
			wc.writeError(err)
			return err
		}
	}
}
