// Package stream provides the tuple, window, and batch substrate shared by
// the live dataflow engine and the discrete-event simulator.
//
// Time is modeled as float64 seconds of application time (the paper's
// "application timestamps", §6.1), so query answers are independent of the
// wall-clock rate at which data is replayed.
//
// # Columnar layout
//
// The hot-path containers hold a batch of n tuples in a handful of slices
// instead of n boxed tuples:
//
//   - Batch is columnar (struct-of-arrays): per-tuple attributes in parallel
//     Seq/Ts/Key/Arr columns and payloads in one flat Vals column with a
//     fixed per-stream arity.
//   - Window is a row-major ring buffer: one fixed-stride record per slot
//     (key, link, seq, ts, arrival, payload — one cache line at width 1), so
//     a probe step and the match it copies out touch the same line. The key
//     index lives in the ring too: a bucket table of newest positions plus
//     each record's link to the next-older record of its bucket (no Go map).
//     Expiration advances a head position and nothing else — a position
//     below head is dead wherever the index still mentions it — and a
//     checkpoint transposes the live records, oldest first, into a Batch's
//     columns.
//   - Joined is a 48-byte row header whose one pointer is its Block; its
//     parts are fixed records indexed by a precomputed stream slot
//     (JoinSchema), followed by their payloads, in the block's data slab.
//   - A join stage builds its rows from a Window in one probe-then-build
//     pass: a count pass (Window.CountGroupMatches) sizes one Block for the
//     stage's output, and Block.AppendJoin re-walks each probe's matches
//     from the newest one the count met, writing every kept match from its window record
//     straight into its row — nothing is staged in between.
//
// The boxed Tuple remains as the interchange/view type: Batch.TupleAt,
// Joined.Part, and friends materialize views on demand.
//
// # Ownership and reuse
//
// Batch, the blocks join results live in, and the engine-side scratch buffers
// are pooled. The rules:
//
//   - A Batch handed to Engine.Ingest (or Session.Ingest) is fully copied
//     during the call; the caller may Reset, Release, or reuse it as soon as
//     Ingest returns.
//   - Tuple views obtained from TupleAt/ValsAt/Part alias pooled storage and
//     are valid only until the owning Batch/Joined is Released or Reset.
//   - A Joined in the pipeline is a row of a Block: one stage's whole output
//     (or one ingested batch's seeds, or one decoded wire frame) written
//     sequentially into two slabs sized before the first row: the row
//     headers, and one pointer-free slab of part records and payloads. A row
//     belongs to its block, and a block to the one message whose partials
//     hold its live rows — so a block has one holder at a time and needs no
//     lock. Each row is Released exactly once, by whoever consumes the
//     partials slice it sits in; the last Release recycles the block.
//     (JoinSchema.Acquire still hands out singletons, each owning a one-row
//     block, for tests and the layer benchmark; Release serves both kinds.)
//   - A result observer only borrows the tuples it is shown; what it keeps
//     leaves through Detach. Detach steals the block when the emission is
//     every live row of one block and fills at least half of it — the rows
//     are handed over as they are and the block is never recycled — and
//     copies into one exact-size block otherwise, so a kept emission never
//     pins more than twice its own bytes. Either way the tuples belong to no
//     pool afterwards, and Release on them does nothing.
package stream

import "fmt"

// Time is an application timestamp in seconds. Windows are defined over
// application time, not arrival time, to keep workloads repeatable (§6.1).
type Time float64

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// Sub returns the elapsed seconds t-u.
func (t Time) Sub(u Time) float64 { return float64(t - u) }

// Add returns t shifted by d seconds.
func (t Time) Add(d float64) Time { return t + Time(d) }

// Tuple is a single stream element. Tuples carry an equi-join key (Key) and
// a payload vector (Vals).
type Tuple struct {
	// Stream identifies the source stream this tuple arrived on.
	Stream string
	// Seq is the per-stream sequence number, starting at 0.
	Seq uint64
	// Ts is the application timestamp.
	Ts Time
	// Key is the equi-join attribute value.
	Key int64
	// Vals is the payload: a fixed number of values per stream.
	Vals []float64
	// Arrival is the system arrival time (set by sources; equals Ts for
	// replayed data). Latency = completion time - Arrival.
	Arrival Time
}

// Clone returns a deep copy of t.
func (t *Tuple) Clone() *Tuple {
	c := *t
	c.Vals = append([]float64(nil), t.Vals...)
	return &c
}

func (t *Tuple) String() string {
	return fmt.Sprintf("%s#%d@%.3f key=%d vals=%v", t.Stream, t.Seq, float64(t.Ts), t.Key, t.Vals)
}
