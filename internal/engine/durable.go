package engine

import (
	"fmt"
	"os"
	"slices"

	"rld/internal/chaos"
	"rld/internal/query"
	"rld/internal/stream"
	"rld/internal/wal"
)

// This file is the router's recovery: the checkpoint, the write-ahead log,
// and the restore-then-replay that rebuilds a crashed node from the two —
// once, over whatever Transport carries the rows.

// openLog starts the write-ahead log in a fresh subdirectory of parent:
// each engine logs into its own, so it never collides with another engine
// sharing the parent.
func (e *Engine) openLog(parent string) error {
	err := os.MkdirAll(parent, 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(parent, "engine-")
	}
	if err != nil {
		return fmt.Errorf("%w: %v", wal.ErrWALDir, err)
	}
	if e.wlog, err = wal.Open(dir); err != nil {
		_ = os.Remove(dir) // best effort: the open failure is the error to report
		return err
	}
	e.walDir = dir
	return nil
}

// closeLog releases the log and its directory at Stop.
func (e *Engine) closeLog() {
	if e.wlog != nil {
		// Best effort on both: the run's results are already out, and a
		// leftover directory holds only a log nothing will read.
		_ = e.wlog.Close()
		_ = os.RemoveAll(e.walDir)
	}
}

// insert applies b's rows to the windows of the join operators over b's
// stream (slot in the join schema), on every node hosting one. Durable mode logs the mutation first,
// fsync'd (group commit coalesces concurrent producers into shared fsyncs),
// before any transport sees the batch; the read lock is held from the
// append to the last window insert, so a checkpoint barrier can never land
// between a logged record and the inserts it covers. A failed append
// leaves no state behind, so the batch can be retried. Batches whose stream
// feeds no join window mutate nothing durable — their loss story is the
// parked-replay path — and skip the log.
func (e *Engine) insert(b *stream.Batch, slot int) error {
	if e.wlog != nil {
		if ops := e.core.JoinOpsFor(b.Stream); len(ops) > 0 {
			e.walMu.RLock()
			defer e.walMu.RUnlock()
			err := e.wlog.Append(wal.Record{Ops: ops, Batch: b})
			if err == nil {
				err = e.wlog.Sync()
			}
			if err != nil {
				return err
			}
		}
	}
	for node, ops := range e.route.Load().inserts[slot] {
		if len(ops) > 0 {
			// A node that cannot take the rows is that node's outage, not
			// the batch's: the transport has reported it down, and its
			// recovery rebuilds the windows from the checkpoint and the log
			// — which holds these rows, or, without durability, loses them
			// with everything else since the checkpoint.
			_ = e.t.Insert(node, ops, b)
		}
	}
	return nil
}

// Checkpoint snapshots every join operator's current window contents; the
// latest snapshot is what Checkpoint-mode recovery restores. An operator
// whose node cannot be asked keeps its previous snapshot (its state will be
// rebuilt from that anyway). The session calls it on a periodic
// virtual-time cadence (FaultPlan.SnapshotEvery).
//
// Durable mode: the write lock excludes in-flight inserts, so the snapshot,
// the log barrier and the truncation form one atomic cut — every logged
// insert is either inside the snapshot (and dropped by Truncate) or after
// the barrier (and replayed on recovery). The cut is made only when every
// pull succeeded: the log behind a stale snapshot is exactly the suffix
// replay needs to bridge it.
func (e *Engine) Checkpoint() {
	if e.wlog != nil {
		e.walMu.Lock()
		defer e.walMu.Unlock()
	}
	assign := e.route.Load().assign
	prev := e.snaps.Load()
	snaps := make([]*stream.Batch, len(assign))
	whole := true
	for op, node := range assign {
		if e.q.Ops[op].Kind != query.Join {
			continue
		}
		snap, err := e.t.SnapshotOp(node, op)
		if err != nil {
			whole = false
			if prev != nil {
				snap = (*prev)[op]
			}
		}
		snaps[op] = snap
	}
	e.snaps.Store(&snaps)
	if e.wlog != nil && whole {
		if err := e.wlog.Barrier(); err == nil {
			// Only drop segments the barrier proved durable.
			_ = e.wlog.Truncate()
		}
	}
}

// revive restarts whatever executes node's stages, as incarnation gen, and
// rebuilds the window state of the join operators the node hosts now —
// ones migrated away during the outage went with their state. Under
// chaos.Checkpoint each is restored from the checkpoint (emptied when none
// was ever taken, which is not counted as a restore); under chaos.LoseState
// each is emptied. It reports how many a snapshot restored. An error leaves
// the node down and its executor killed.
//
// Durable mode then replays the log suffix past the checkpoint into the
// restored operators: the snapshot wound their windows back to the barrier,
// and the retained records carry everything since, including what was
// ingested while the node was down. Records the snapshot already covers
// re-insert as duplicates and are dropped by the per-operator dedup, so the
// overlap is harmless. The write lock freezes the log across restore +
// replay. A log that cannot be replayed fails the revival: the node stays
// down rather than come back without its post-checkpoint suffix.
func (e *Engine) revive(node int, gen uint64, mode chaos.RecoveryMode) (restored int, err error) {
	if e.wlog != nil {
		e.walMu.Lock()
		defer e.walMu.Unlock()
	}
	if err := e.t.Restart(node, gen); err != nil {
		return 0, err
	}
	var joinOps []int
	for op, n := range e.route.Load().assign {
		if n == node && e.q.Ops[op].Kind == query.Join {
			joinOps = append(joinOps, op)
		}
	}
	var snaps []*stream.Batch
	if p := e.snaps.Load(); p != nil && mode == chaos.Checkpoint {
		snaps = *p
	}
	for _, op := range joinOps {
		var snap *stream.Batch
		if snaps != nil {
			snap = snaps[op]
			restored++
		}
		if err = e.t.RestoreOp(node, op, snap); err != nil {
			break
		}
	}
	if err == nil && e.wlog != nil && mode == chaos.Checkpoint && len(joinOps) > 0 {
		err = e.wlog.Replay(func(r wal.Record) error {
			// The record is this call's own: keep, in place, the operators
			// this node hosts.
			ops := r.Ops[:0]
			for _, op := range r.Ops {
				if slices.Contains(joinOps, op) {
					ops = append(ops, op)
				}
			}
			if len(ops) == 0 {
				return nil
			}
			return e.t.Insert(node, ops, r.Batch)
		})
	}
	if err != nil {
		e.t.Kill(node)
		return 0, fmt.Errorf("engine: rebuild node %d: %w", node, err)
	}
	return restored, nil
}
