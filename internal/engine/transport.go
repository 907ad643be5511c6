package engine

import "rld/internal/stream"

// Transport is how the router reaches operator state: the mechanisms that
// differ between running every node in this process and running each as a
// worker process behind a connection. The Engine owns the rest — plan
// choice, routing, queues and their worker pools, backpressure, the
// down/parked failure state, slowdowns, counters, and everything about
// recovery: the checkpoint, the write-ahead log and the restore-then-replay
// that uses them (durable.go) — once, for both. A transport keeps no
// snapshot, no log and no insert it could not deliver. There are two
// implementations: localTransport below, and netrt.Cluster.
type Transport interface {
	// Insert applies b's rows to the windows of ops, join operators over
	// b's stream that node hosts. An error means the node could not take
	// them; what becomes of the rows is the router's business.
	Insert(node int, ops []int, b *stream.Batch) error
	// RunStage executes operator op on node over the partials in and
	// returns the survivors. On success ownership of in has passed to the
	// transport, and the stage's selectivity counts are in the router's
	// NodeCore, which keeps the only ones; an error means the node died
	// under the hop, in is still whole, and nothing was counted.
	RunStage(node, op int, in []*stream.Joined) (out []*stream.Joined, err error)
	// SnapshotOp returns the current window contents of join operator op,
	// which node hosts. An error means node could not be asked.
	SnapshotOp(node, op int) (*stream.Batch, error)
	// RestoreOp replaces the window contents of join operator op on node
	// with snap; nil empties it.
	RestoreOp(node, op int, snap *stream.Batch) error
	// Restart brings back whatever executes node's stages, as the router's
	// incarnation gen of it. What window state it comes back with is
	// unspecified: the router restores every join operator it hosts before
	// any stage runs. An error leaves the node killed.
	Restart(node int, gen uint64) error
	// Kill severs whatever executes node's stages; a RunStage in flight on
	// it returns an error promptly.
	Kill(node int)
	// MoveOp carries operator op's state from node from to node to, ahead
	// of the routing-table swap that sends its stages there. An error means
	// from could not give the state up, and to holds whatever it held.
	MoveOp(op, from, to int) error
	// Close releases the transport after the router has drained and
	// stopped its pools.
	Close()
}

// localTransport runs every node in this process: all nodes share one
// NodeCore, so every method is a direct call that cannot fail, a migration
// moves nothing, and a crash loses no memory — the router's recovery
// rewinds the node's windows to the checkpoint (or empties them) to model
// the loss.
type localTransport struct {
	core *NodeCore
}

// Insert implements Transport: one shard lock per shard per operator per
// batch.
func (l localTransport) Insert(_ int, ops []int, b *stream.Batch) error {
	sc := getScratch()
	for _, op := range ops {
		l.core.ops[op].insertBatch(b, sc, false)
	}
	putScratch(sc)
	return nil
}

// RunStage implements Transport: the stage kernel in NodeCore, shared with
// netrt workers.
func (l localTransport) RunStage(_, op int, in []*stream.Joined) ([]*stream.Joined, error) {
	return l.core.runStage(op, in), nil
}

// SnapshotOp implements Transport.
func (l localTransport) SnapshotOp(_, op int) (*stream.Batch, error) {
	return l.core.SnapshotOp(op), nil
}

// RestoreOp implements Transport.
func (l localTransport) RestoreOp(_, op int, snap *stream.Batch) error {
	l.core.RestoreOp(op, snap)
	return nil
}

// Restart implements Transport: the router starts the node's next pool
// itself, and there is nothing else to a goroutine node.
func (l localTransport) Restart(int, uint64) error { return nil }

// Kill implements Transport: the router has already retired the node's
// pool, and goroutines hold nothing else to sever.
func (l localTransport) Kill(int) {}

// MoveOp implements Transport: operator state is shared memory, so a
// migration is the routing-table swap alone.
func (l localTransport) MoveOp(int, int, int) error { return nil }

// Close implements Transport.
func (l localTransport) Close() {}
