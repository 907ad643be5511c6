package stream

import (
	"math/bits"
	"slices"
)

// Window is a sliding time window buffer over one stream, ordered by
// application timestamp. It supports insertion, expiration, and key probes —
// the operations a symmetric windowed join needs.
//
// Storage is a columnar ring buffer: records live in power-of-two columns
// addressed by absolute positions, the live ones being [head, tail).
// Positions only ever grow (they start at 1 and Reset does not rewind them),
// a record's slot is its position masked by the ring capacity, and
// expiration just advances head — no reallocation or copying.
//
// The key index is a bucket-chain hash table kept inside the ring, with
// these invariants:
//
//   - bucket[h] is the absolute position of the newest record whose key
//     hashes to h, and next[slot] the position of the next-older record in
//     the same bucket. A chain therefore runs newest → oldest in strictly
//     decreasing positions, and may mix keys that share a bucket: a probe
//     compares the key column as it walks.
//   - A position below head is dead. Nothing ever unlinks a record: eviction
//     is strictly oldest-first, so once a walk meets a position below head
//     everything further down the chain is older still, and the walk stops.
//     A never-used bucket holds 0, which is below every head.
//   - Expiry therefore needs no index work at all — it is a timestamp scan
//     that advances head; stale bucket heads and chain tails are just
//     positions that have fallen below it, overwritten by later inserts.
//
// The table has bucketsPerSlot buckets per ring slot and is rebuilt whenever
// the ring grows.
//
// The zero Window is not usable; construct with NewWindow.
type Window struct {
	span  float64 // window length in seconds
	arity int     // payload width+1; 0 until fixed by the first insert

	head, tail uint64 // absolute positions; live records are [head, tail)

	seq  []uint64
	ts   []Time
	key  []int64
	arr  []Time
	vals []float64 // width values per slot
	next []uint64  // bucket chain: absolute position of the next-older record

	bucket []uint64 // hash bucket → newest absolute position
	shift  uint     // 64 - log2(len(bucket)): bucketOf keeps the hash's top bits
}

const (
	// bucketsPerSlot is the index's fixed load factor: at most one live
	// record per two buckets, so a chain rarely holds a foreign key.
	bucketsPerSlot = 2
	// minRing is the initial ring capacity.
	minRing = 64
	// hashMul is 2^64/φ (Fibonacci hashing).
	hashMul = 0x9E3779B97F4A7C15
)

// NewWindow returns an empty sliding window of the given span in seconds.
func NewWindow(span float64) *Window {
	if span <= 0 {
		span = 1e-9
	}
	return &Window{span: span, head: 1, tail: 1}
}

// Span returns the window length in seconds.
func (w *Window) Span() float64 { return w.span }

// Len returns the number of buffered tuples.
func (w *Window) Len() int { return int(w.tail - w.head) }

// Width returns the payload width, or -1 until the first insert fixes it.
func (w *Window) Width() int { return w.arity - 1 }

// bucketOf hashes key to a bucket. It keeps the *high* bits of a
// multiplicative hash: the engine shards windows on the key's low bits, so
// within one shard those are constant and must not pick the bucket.
func (w *Window) bucketOf(key int64) uint64 { return uint64(key) * hashMul >> w.shift }

// grow doubles the ring capacity, re-slotting live records at their absolute
// position under the new mask, and rebuilds the (doubled) bucket table by
// re-linking them oldest-first, which keeps every chain newest → oldest.
func (w *Window) grow() {
	oldCap := len(w.seq)
	newCap := max(oldCap*2, minRing)
	width := w.arity - 1
	seq := make([]uint64, newCap)
	ts := make([]Time, newCap)
	key := make([]int64, newCap)
	arr := make([]Time, newCap)
	vals := make([]float64, newCap*width)
	w.next = make([]uint64, newCap)
	w.bucket = make([]uint64, newCap*bucketsPerSlot)
	w.shift = uint(64 - bits.TrailingZeros(uint(len(w.bucket))))
	oldMask, newMask := uint64(oldCap-1), uint64(newCap-1)
	for p := w.head; p < w.tail; p++ {
		os, ns := p&oldMask, p&newMask
		seq[ns] = w.seq[os]
		ts[ns] = w.ts[os]
		key[ns] = w.key[os]
		arr[ns] = w.arr[os]
		copy(vals[int(ns)*width:(int(ns)+1)*width], w.vals[int(os)*width:(int(os)+1)*width])
		h := w.bucketOf(key[ns])
		w.next[ns] = w.bucket[h]
		w.bucket[h] = p
	}
	w.seq, w.ts, w.key, w.arr, w.vals = seq, ts, key, arr, vals
}

// appendRecord writes one record at tail and pushes it onto its bucket's
// chain. The window's width must already be fixed.
func (w *Window) appendRecord(seq uint64, ts Time, key int64, arrival Time, vals []float64) {
	if w.Len() == len(w.seq) {
		w.grow()
	}
	mask := uint64(len(w.seq) - 1)
	slot := w.tail & mask
	w.seq[slot] = seq
	w.ts[slot] = ts
	w.key[slot] = key
	w.arr[slot] = arrival
	width := w.arity - 1
	copyRow(w.vals[int(slot)*width:(int(slot)+1)*width], vals)
	h := w.bucketOf(key)
	w.next[slot] = w.bucket[h]
	w.bucket[h] = w.tail
	w.tail++
}

// Insert adds t and evicts tuples older than t.Ts - span. Tuples must be
// inserted in non-decreasing timestamp order; out-of-order inserts are
// accepted but expiration is driven by the max timestamp seen.
func (w *Window) Insert(t *Tuple) {
	if w.arity == 0 {
		w.arity = len(t.Vals) + 1
	}
	w.appendRecord(t.Seq, t.Ts, t.Key, t.Arrival, t.Vals)
	w.ExpireBefore(t.Ts.Add(-w.span))
}

// InsertRows bulk-inserts the given rows of b (in order), then expires once
// against the rows' maximum timestamp. This retains exactly the same set as
// per-row Insert: expiration only scans the (timestamp-ordered-enough)
// prefix, and deferring it to the batch maximum evicts the union of what the
// per-row cutoffs would have evicted.
func (w *Window) InsertRows(b *Batch, rows []int32) {
	if len(rows) == 0 {
		return
	}
	if w.arity == 0 {
		if b.arity > 0 {
			w.arity = b.arity
		} else {
			w.arity = 1
		}
	}
	maxTs := b.Ts[rows[0]]
	for _, r := range rows {
		ts := b.Ts[r]
		if ts > maxTs {
			maxTs = ts
		}
		w.appendRecord(b.Seq[r], ts, b.Key[r], b.Arr[r], b.ValsAt(int(r)))
	}
	w.ExpireBefore(maxTs.Add(-w.span))
}

// ExpireBefore removes all tuples with Ts < cutoff (prefix scan from head).
// The key index is not touched: the evicted positions are now below head,
// which is all a chain walk needs to skip them.
func (w *Window) ExpireBefore(cutoff Time) {
	mask := uint64(len(w.seq) - 1)
	for w.head < w.tail && w.ts[w.head&mask].Before(cutoff) {
		w.head++
	}
}

// AppendMatches appends all buffered records matching key to m, oldest
// first (insertion order), and returns how many were appended. The records
// are copied out, so m remains valid after further window mutation.
func (w *Window) AppendMatches(key int64, m *Matches) int {
	if w.head == w.tail {
		return 0
	}
	mask := uint64(len(w.seq) - 1)
	first := w.bucket[w.bucketOf(key)]
	n := 0
	for p := first; p >= w.head; p = w.next[p&mask] {
		if w.key[p&mask] == key {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	width := w.arity - 1
	if m.Len() == 0 {
		m.width = width
	}
	mw := m.width
	base := len(m.Seq)
	m.Seq = slices.Grow(m.Seq, n)[:base+n]
	m.Ts = slices.Grow(m.Ts, n)[:base+n]
	m.Arr = slices.Grow(m.Arr, n)[:base+n]
	m.Vals = slices.Grow(m.Vals, n*mw)[:(base+n)*mw]
	// The chain runs newest → oldest; fill the new rows back to front.
	i := base + n
	for p := first; p >= w.head; p = w.next[p&mask] {
		slot := int(p & mask)
		if w.key[slot] != key {
			continue
		}
		i--
		m.Seq[i] = w.seq[slot]
		m.Ts[i] = w.ts[slot]
		m.Arr[i] = w.arr[slot]
		copyRow(m.Vals[i*mw:(i+1)*mw], w.vals[slot*width:(slot+1)*width])
	}
	return n
}

// Snapshot appends every buffered record to b in insertion order (for
// checkpointing). If b's width is not yet fixed it inherits the window's.
// The live ring is at most two contiguous runs of slots — [head's slot, end
// of ring) and [0, tail's slot) — so each column is copied with one or two
// bulk appends rather than row by row.
func (w *Window) Snapshot(b *Batch) {
	n := w.Len()
	if n == 0 {
		return
	}
	if b.arity == 0 {
		b.arity = w.arity
	}
	mask := uint64(len(w.seq) - 1)
	lo := int(w.head & mask)
	run := min(n, len(w.seq)-lo) // slots in the first run; the second starts at slot 0
	b.Seq = appendRing(b.Seq, w.seq, lo, run, n)
	b.Ts = appendRing(b.Ts, w.ts, lo, run, n)
	b.Key = appendRing(b.Key, w.key, lo, run, n)
	b.Arr = appendRing(b.Arr, w.arr, lo, run, n)
	width, bw := w.arity-1, b.arity-1
	if bw == width {
		b.Vals = appendRing(b.Vals, w.vals, lo*width, run*width, n*width)
		return
	}
	// b was sized for another width: truncate or zero-pad each row to it.
	base := len(b.Vals)
	b.Vals = slices.Grow(b.Vals, n*bw)[:base+n*bw]
	for p := w.head; p < w.tail; p++ {
		slot := int(p & mask)
		copyRow(b.Vals[base:base+bw], w.vals[slot*width:(slot+1)*width])
		base += bw
	}
}

// copyRow fills the payload row dst from src, truncating or zero-padding src
// to dst's width.
func copyRow(dst, src []float64) { clear(dst[copy(dst, src):]) }

// appendRing appends to dst the n ring elements that start at index lo, the
// first run of them contiguous and the rest wrapped round to index 0, growing
// dst at most once.
func appendRing[T any](dst, ring []T, lo, run, n int) []T {
	dst = slices.Grow(dst, n)
	dst = append(dst, ring[lo:lo+run]...)
	return append(dst, ring[:n-run]...)
}

// Reset drops all buffered tuples, keeping capacity and span. Positions are
// not rewound — every record so far simply falls below head — so the index
// needs no clearing.
func (w *Window) Reset() { w.head = w.tail }

// Matches is a columnar probe-result scratch buffer: the records matching a
// sequence of AppendMatches calls, each ValsAt(i) being Width() payload
// values. Reset before reuse across operators (the width follows the first
// window appended after a Reset).
type Matches struct {
	Seq  []uint64
	Ts   []Time
	Arr  []Time
	Vals []float64

	width int
}

// Len returns the number of buffered match records.
func (m *Matches) Len() int { return len(m.Seq) }

// Width returns the payload width of the buffered records.
func (m *Matches) Width() int { return m.width }

// Reset truncates m, keeping capacity.
func (m *Matches) Reset() {
	m.Seq = m.Seq[:0]
	m.Ts = m.Ts[:0]
	m.Arr = m.Arr[:0]
	m.Vals = m.Vals[:0]
	m.width = 0
}

// ValsAt returns record i's payload (a view into Vals).
func (m *Matches) ValsAt(i int) []float64 {
	return m.Vals[i*m.width : (i+1)*m.width : (i+1)*m.width]
}
