package engine

import (
	"fmt"
	"os"
	"slices"
	"sync"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/stream"
	"rld/internal/wal"
)

// Transport is how the router reaches operator state: everything that
// differs between running every node in this process and running each as
// a worker process behind a connection. The Engine owns the rest — plan
// choice, routing, queues and their worker pools, backpressure, the
// down/parked failure state, slowdowns, counters — once, for both. There
// are two implementations: localTransport below, and netrt.Cluster.
type Transport interface {
	// Insert applies b's rows to the windows of the join operators over
	// b's stream, wherever assign places them. An error means nothing the
	// caller must undo happened, so the same batch can be offered again.
	Insert(b *stream.Batch, assign physical.Assignment) error
	// RunStage executes operator op on node over the partials in and
	// returns the survivors. On success ownership of in has passed to the
	// transport; an error means the node died under the hop and in is
	// still whole.
	RunStage(node, op int, in []*stream.Joined) (out []*stream.Joined, err error)
	// Snapshot records every join operator's current window contents; the
	// transport keeps the latest snapshot for Revive to restore.
	Snapshot(assign physical.Assignment)
	// Revive rebuilds the state of joinOps, the join operators node hosts,
	// for its incarnation gen: restored from the latest snapshot (plus
	// whatever the write-ahead log holds past it) under chaos.Checkpoint,
	// empty under chaos.LoseState. It reports how many operators a snapshot
	// restored. An error leaves the node down.
	Revive(node int, gen uint64, joinOps []int, mode chaos.RecoveryMode) (restored int, err error)
	// Kill severs whatever executes node's stages; a RunStage in flight on
	// it returns an error promptly.
	Kill(node int)
	// MoveOp carries operator op's state from node from to node to, ahead
	// of the routing-table swap that sends its stages there.
	MoveOp(op, from, to int)
	// ObservedSels returns every operator's observed selectivity.
	ObservedSels() []float64
	// Close releases the transport after the router has drained and
	// stopped its pools.
	Close()
}

// localTransport runs every node in this process: all nodes share one
// NodeCore, so a stage is a direct call, migration moves nothing, and a
// crash loses no memory — recovery rewinds the node's windows to the last
// snapshot (or clears them) to model the loss. It owns the exactly-once
// write-ahead log and the checkpoint snapshots.
type localTransport struct {
	core *NodeCore

	// wlog is the exactly-once write-ahead log (nil without
	// Config.WALDir), set once at construction and immutable after — no
	// lock guards the pointer itself. walMu orders logged inserts against
	// checkpoint barriers: Insert holds the read side across its
	// append+insert pair, Snapshot the write side across
	// snapshot+barrier+truncate, and Revive the write side across
	// restore+replay — so every logged insert is either covered by the
	// snapshot before the barrier or retained after it, never split.
	wlog  *wal.Log
	walMu sync.RWMutex
	// walDir is this engine's own subdirectory of Config.WALDir. Nothing
	// reopens it — the log bridges in-process crashes, within one engine's
	// life — so Close removes it with the log.
	walDir string

	// snapMu guards snaps, the latest Snapshot()'s per-op window contents
	// as columnar batches (nil until the first checkpoint).
	snapMu sync.Mutex
	snaps  []*stream.Batch //rldlint:guardedby snapMu
}

// newLocalTransport wraps core, opening the write-ahead log when its
// configuration names a WALDir.
func newLocalTransport(core *NodeCore) (*localTransport, error) {
	l := &localTransport{core: core}
	parent := core.cfg.WALDir
	if parent == "" {
		return l, nil
	}
	// Each engine incarnation logs into its own subdirectory: the
	// process survives in-process "crashes", so the same Log instance
	// serves the whole run and never collides with another engine
	// sharing the parent directory.
	dir, err := os.MkdirTemp(parent, "engine-")
	if err != nil {
		if mkerr := os.MkdirAll(parent, 0o755); mkerr != nil {
			return nil, fmt.Errorf("%w: %v", wal.ErrWALDir, mkerr)
		}
		if dir, err = os.MkdirTemp(parent, "engine-"); err != nil {
			return nil, fmt.Errorf("%w: %v", wal.ErrWALDir, err)
		}
	}
	if l.wlog, err = wal.Open(dir); err != nil {
		_ = os.Remove(dir) // best effort: the open failure is the error to report
		return nil, err
	}
	l.walDir = dir
	return l, nil
}

// Insert implements Transport. Durable mode logs the window mutation
// before applying it, fsync'd (group commit coalesces concurrent producers
// into shared fsyncs). The read lock is held across append+insert so a
// checkpoint barrier can never land between a logged record and its window
// insert. A failed append leaves no state behind, so the batch can be
// retried. Batches whose stream feeds no join window mutate nothing
// durable — their loss story is the parked-replay path — and skip the log.
func (l *localTransport) Insert(b *stream.Batch, _ physical.Assignment) error {
	if l.wlog != nil {
		if ops := l.core.JoinOpsFor(b.Stream); len(ops) > 0 {
			l.walMu.RLock()
			defer l.walMu.RUnlock()
			err := l.wlog.Append(wal.Record{Ops: ops, Batch: b})
			if err == nil {
				err = l.wlog.Sync()
			}
			if err != nil {
				return err
			}
		}
	}
	// Bulk-insert into the windows of join ops over this stream, one shard
	// lock per shard per batch.
	sc := getScratch()
	l.core.insertStream(b, sc)
	putScratch(sc)
	return nil
}

// RunStage implements Transport: the stage kernel in NodeCore, shared with
// netrt workers. A goroutine cannot die under a call, so it never fails.
func (l *localTransport) RunStage(_, op int, in []*stream.Joined) ([]*stream.Joined, error) {
	return l.core.runStage(op, in), nil
}

// Snapshot implements Transport.
func (l *localTransport) Snapshot(physical.Assignment) {
	// Durable mode: the write lock excludes in-flight Inserts, so the
	// snapshot, the WAL barrier, and the truncation form one atomic cut —
	// every logged insert is either inside the snapshot (and dropped by
	// Truncate) or after the barrier (and replayed on recovery).
	if l.wlog != nil {
		l.walMu.Lock()
		defer l.walMu.Unlock()
	}
	snaps := make([]*stream.Batch, l.core.NumOps())
	for i := range snaps {
		snaps[i] = l.core.SnapshotOp(i)
	}
	if l.wlog != nil {
		if err := l.wlog.Barrier(); err == nil {
			// Only drop segments the barrier proved durable.
			_ = l.wlog.Truncate()
		}
	}
	l.snapMu.Lock()
	l.snaps = snaps
	l.snapMu.Unlock()
}

// Revive implements Transport: operators migrated away during the outage
// kept their state (it is shared memory, see MoveOp), so only the ones the
// node still hosts are rebuilt. In durable mode the write lock freezes the
// log across restore+replay.
func (l *localTransport) Revive(_ int, _ uint64, joinOps []int, mode chaos.RecoveryMode) (int, error) {
	if l.wlog != nil {
		l.walMu.Lock()
		defer l.walMu.Unlock()
	}
	if mode != chaos.Checkpoint {
		for _, op := range joinOps {
			l.core.ClearOp(op)
		}
		return 0, nil
	}
	restored := 0
	for _, op := range joinOps {
		if l.restoreOp(op) {
			restored++
		}
	}
	if l.wlog == nil || len(joinOps) == 0 {
		return restored, nil
	}
	// Replay the WAL suffix past the last checkpoint into the restored
	// operators: the snapshot wound their windows back to the barrier, and
	// the retained records carry everything since. Records the snapshot
	// already covers re-insert as duplicates and are dropped by the
	// per-operator dedup, so the overlap is harmless. A log that cannot be
	// replayed fails the revival: the node stays down rather than come back
	// without its post-checkpoint suffix.
	return restored, l.wlog.Replay(func(r wal.Record) error {
		for _, op := range r.Ops {
			if slices.Contains(joinOps, op) {
				if err := l.core.Insert(op, r.Batch); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// restoreOp replaces an operator's window state with the latest snapshot
// and reports whether one existed: with no snapshot ever taken the window
// is cleared (equivalent to LoseState) and the restore must not be counted
// as one.
func (l *localTransport) restoreOp(op int) bool {
	l.snapMu.Lock()
	taken := l.snaps != nil
	var snap *stream.Batch
	if taken {
		snap = l.snaps[op]
	}
	l.snapMu.Unlock()
	l.core.RestoreOp(op, snap)
	return taken
}

// Kill implements Transport: the router has already retired the node's
// pool, and goroutines hold nothing else to sever.
func (l *localTransport) Kill(int) {}

// MoveOp implements Transport: operator state is shared memory, so a
// migration is the routing-table swap alone.
func (l *localTransport) MoveOp(op, from, to int) {}

// ObservedSels implements Transport.
func (l *localTransport) ObservedSels() []float64 { return l.core.ObservedSels() }

// Close implements Transport.
func (l *localTransport) Close() {
	if l.wlog != nil {
		// Best effort on both: the run's results are already out, and a
		// leftover directory holds only a log nothing will read.
		_ = l.wlog.Close()
		_ = os.RemoveAll(l.walDir)
	}
}
