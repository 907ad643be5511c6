package stream

import "sync"

// Batch groups consecutive tuples of one stream for routing. The paper calls
// these "rusters" (§6.1, minimum size 100): the RLD executor assigns one
// logical plan per batch so the per-tuple classification cost amortizes to
// ≈2% of execution (§6.5).
//
// Storage is columnar: per-tuple attributes live in the parallel
// Seq/Ts/Key/Arr columns (always of equal length) and payloads in the flat
// Vals column, Width values per row (row i's payload is ValsAt(i)). The
// width is fixed at construction (NewSizedBatch/AcquireBatch) or by the
// first Append. See the package doc for ownership and reuse rules.
type Batch struct {
	// Stream is the source stream of all tuples in the batch.
	Stream string
	// Plan is the identifier of the logical plan assigned by the online
	// classifier; -1 until assigned.
	Plan int

	// Seq, Ts, Key, Arr are the per-tuple attribute columns in arrival order.
	Seq []uint64
	Ts  []Time
	Key []int64
	Arr []Time
	// Vals is the flat payload column: Width values per row.
	Vals []float64

	// arity is Width+1; 0 means the width is not fixed yet.
	arity int
}

// NewBatch returns an empty batch for the named stream. Its payload width is
// fixed by the first appended tuple.
func NewBatch(streamName string) *Batch {
	return &Batch{Stream: streamName, Plan: -1}
}

// NewSizedBatch returns an empty batch with a fixed payload width and
// capacity for n tuples.
func NewSizedBatch(streamName string, width, n int) *Batch {
	if width < 0 {
		width = 0
	}
	return &Batch{
		Stream: streamName,
		Plan:   -1,
		Seq:    make([]uint64, 0, n),
		Ts:     make([]Time, 0, n),
		Key:    make([]int64, 0, n),
		Arr:    make([]Time, 0, n),
		Vals:   make([]float64, 0, n*width),
		arity:  width + 1,
	}
}

// batchPool recycles batches with their column capacity. The columns hold
// only scalars, so recycling needs no pointer clearing.
var batchPool = sync.Pool{New: func() any { return &Batch{Plan: -1} }}

// AcquireBatch returns a pooled empty batch for the named stream with the
// given payload width. Release it when done to recycle its columns.
func AcquireBatch(streamName string, width int) *Batch {
	b := batchPool.Get().(*Batch)
	b.Stream = streamName
	if width < 0 {
		width = 0
	}
	b.arity = width + 1
	return b
}

// Release resets b and returns it to the pool. The caller must not use b (or
// any TupleAt/ValsAt view of it) afterwards.
func (b *Batch) Release() {
	b.Reset()
	b.Stream = ""
	b.arity = 0
	batchPool.Put(b)
}

// Reset truncates the batch to zero tuples, keeping column capacity and the
// fixed width.
func (b *Batch) Reset() {
	b.Seq = b.Seq[:0]
	b.Ts = b.Ts[:0]
	b.Key = b.Key[:0]
	b.Arr = b.Arr[:0]
	b.Vals = b.Vals[:0]
	b.Plan = -1
}

// Width returns the payload arity per tuple, or -1 until fixed.
func (b *Batch) Width() int { return b.arity - 1 }

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Key) }

// Append adds a copy of t — the boxed-tuple convenience path. The first
// Append fixes the batch's payload width; later payloads are truncated or
// zero-padded to it. The allocation-free path is AppendRow.
func (b *Batch) Append(t *Tuple) {
	if b.arity == 0 {
		b.arity = len(t.Vals) + 1
	}
	row := b.AppendRow(t.Seq, t.Ts, t.Key, t.Arrival)
	copy(row, t.Vals)
}

// AppendRow appends one tuple row and returns its zeroed payload slot
// (length Width) for the caller to fill in place. The width must already be
// fixed.
func (b *Batch) AppendRow(seq uint64, ts Time, key int64, arrival Time) []float64 {
	if b.arity == 0 {
		panic("stream: AppendRow on a batch with unfixed width")
	}
	w := b.arity - 1
	b.Seq = append(b.Seq, seq)
	b.Ts = append(b.Ts, ts)
	b.Key = append(b.Key, key)
	b.Arr = append(b.Arr, arrival)
	n := len(b.Vals)
	for i := 0; i < w; i++ {
		b.Vals = append(b.Vals, 0)
	}
	return b.Vals[n : n+w : n+w]
}

// ValsAt returns row i's payload — a view into the Vals column, valid until
// the batch is Released or Reset.
func (b *Batch) ValsAt(i int) []float64 {
	w := b.arity - 1
	return b.Vals[i*w : (i+1)*w : (i+1)*w]
}

// TupleAt materializes row i as a boxed tuple view. Its Vals alias the Vals
// column (valid until Release/Reset); Clone for an owned copy.
func (b *Batch) TupleAt(i int) Tuple {
	return Tuple{
		Stream:  b.Stream,
		Seq:     b.Seq[i],
		Ts:      b.Ts[i],
		Key:     b.Key[i],
		Arrival: b.Arr[i],
		Vals:    b.ValsAt(i),
	}
}

// Truncate shortens the batch to its first n tuples.
func (b *Batch) Truncate(n int) {
	w := b.arity - 1
	b.Seq = b.Seq[:n]
	b.Ts = b.Ts[:n]
	b.Key = b.Key[:n]
	b.Arr = b.Arr[:n]
	b.Vals = b.Vals[:n*w]
}

// FirstTs returns the first tuple's timestamp (0 for an empty batch).
func (b *Batch) FirstTs() Time {
	if len(b.Ts) == 0 {
		return 0
	}
	return b.Ts[0]
}

// LastTs returns the last tuple's timestamp (0 for an empty batch).
func (b *Batch) LastTs() Time {
	if len(b.Ts) == 0 {
		return 0
	}
	return b.Ts[len(b.Ts)-1]
}

// MaxTs returns the maximum timestamp in the batch (0 for an empty batch).
// Batches are normally timestamp-ordered, but out-of-order rows are legal,
// so window expiration is driven by the maximum, not the last.
func (b *Batch) MaxTs() Time {
	var m Time
	for _, ts := range b.Ts {
		if ts > m {
			m = ts
		}
	}
	return m
}

// Span returns the application-time extent (last - first) in seconds, or 0
// for batches with fewer than two tuples.
func (b *Batch) Span() float64 {
	if len(b.Ts) < 2 {
		return 0
	}
	return b.Ts[len(b.Ts)-1].Sub(b.Ts[0])
}
