package stream

import (
	"math"
	"math/bits"
	"slices"
)

// Window is a sliding time window buffer over one stream, ordered by
// application timestamp. It supports insertion, expiration, and key probes —
// the operations a symmetric windowed join needs.
//
// Storage is a row-major ring buffer: one []uint64 holding a fixed-stride
// record per slot — key, next, seq, ts, arr, then the payload (floats as
// their bit patterns), 48 bytes at width 1 — for a power-of-two number of
// slots addressed by absolute positions, the live ones being [head, tail).
// Positions only ever grow (they start at 1 and Reset does not rewind them),
// a record's slot is its position masked by the ring capacity, and
// expiration just advances head — no reallocation or copying. Everything a
// chain step reads (key, next) and everything a match copies out sits in the
// one record, so a step touches one cache line where parallel columns
// touched two, and a match costs no further miss.
//
// The key index is a bucket-chain hash table kept inside the ring, with
// these invariants:
//
//   - bucket[h] is the absolute position of the newest record whose key
//     hashes to h, and a record's next word the position of the next-older
//     record in the same bucket. A chain therefore runs newest → oldest in
//     strictly decreasing positions, and may mix keys that share a bucket: a
//     probe compares each record's key as it walks.
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

	recs   []uint64 // slots records of stride words each
	slots  int      // ring capacity, a power of two (0 before the first insert)
	stride int      // recFixed + payload width

	bucket []uint64 // hash bucket → newest absolute position
	shift  uint     // 64 - log2(len(bucket)): bucketOf keeps the hash's top bits
}

// Word offsets within a record; the payload follows from recFixed on.
const (
	recKey = iota
	recNext
	recSeq
	recTs
	recArr
	recFixed
)

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

// rec returns the record at absolute position p.
func (w *Window) rec(p uint64) []uint64 {
	off := int(p&uint64(w.slots-1)) * w.stride
	return w.recs[off : off+w.stride : off+w.stride]
}

// reserve grows the ring, if need be, to hold n records: it doubles the
// capacity (from minRing) until n fit, then re-slots every live record at its
// absolute position under the new mask and rebuilds the bucket table at the
// new size by re-linking them oldest-first, which keeps every chain newest →
// oldest. The result is the capacity a grow-when-full check before each
// append would reach, in one rebuild instead of one per doubling.
func (w *Window) reserve(n int) {
	if n <= w.slots {
		return
	}
	old := *w
	w.slots = max(old.slots, minRing)
	for w.slots < n {
		w.slots *= 2
	}
	w.stride = recFixed + w.arity - 1
	w.recs = make([]uint64, w.slots*w.stride)
	w.bucket = make([]uint64, w.slots*bucketsPerSlot)
	w.shift = uint(64 - bits.TrailingZeros(uint(len(w.bucket))))
	for p := w.head; p < w.tail; p++ {
		r := w.rec(p)
		copy(r, old.rec(p))
		h := w.bucketOf(int64(r[recKey]))
		r[recNext] = w.bucket[h]
		w.bucket[h] = p
	}
}

// putRec fills the record slot r: key, the chain link next, seq, ts, arr,
// and the payload vals, truncated or zero-padded to the record's width. It is
// the one step both inserts share, small enough to inline into InsertRows's
// loop; the caller links r into its bucket.
func putRec(r []uint64, key int64, next, seq uint64, ts, arr Time, vals []float64) {
	r[recKey] = uint64(key)
	r[recNext] = next
	r[recSeq] = seq
	r[recTs] = math.Float64bits(float64(ts))
	r[recArr] = math.Float64bits(float64(arr))
	pay := r[recFixed:]
	for i, v := range vals[:min(len(pay), len(vals))] {
		pay[i] = math.Float64bits(v)
	}
	if len(vals) < len(pay) {
		clear(pay[len(vals):])
	}
}

// Insert adds t and evicts tuples older than t.Ts - span. Tuples must be
// inserted in non-decreasing timestamp order; out-of-order inserts are
// accepted but expiration is driven by the max timestamp seen.
func (w *Window) Insert(t *Tuple) {
	if w.arity == 0 {
		w.arity = len(t.Vals) + 1
	}
	w.reserve(w.Len() + 1)
	h := w.bucketOf(t.Key)
	putRec(w.rec(w.tail), t.Key, w.bucket[h], t.Seq, t.Ts, t.Arrival, t.Vals)
	w.bucket[h] = w.tail
	w.tail++
	w.ExpireBefore(t.Ts.Add(-w.span))
}

// InsertRows bulk-inserts the given rows of b (in order), then expires once
// against the rows' maximum timestamp. This retains exactly the same set as
// per-row Insert: expiration only scans the (timestamp-ordered-enough)
// prefix, and deferring it to the batch maximum evicts the union of what the
// per-row cutoffs would have evicted.
//
// It is one pass: the ring grows once, up front, to hold Len()+len(rows)
// (nothing expires before the end, so that is the capacity per-row growth
// would reach), and each row is then written straight from b's columns into
// its slot and pushed onto its chain, with the ring's layout held in locals.
// A payload of another width than the window's is truncated or zero-padded.
func (w *Window) InsertRows(b *Batch, rows []int32) {
	if len(rows) == 0 {
		return
	}
	if w.arity == 0 {
		w.arity = max(b.arity, 1)
	}
	w.reserve(w.Len() + len(rows))
	recs, bucket, tail := w.recs, w.bucket, w.tail
	mask, stride, shift := uint64(w.slots-1), w.stride, w.shift
	bw := max(b.arity-1, 0)
	maxTs := b.Ts[rows[0]]
	for _, i := range rows {
		ts, key := b.Ts[i], b.Key[i]
		if ts > maxTs {
			maxTs = ts
		}
		h := uint64(key) * hashMul >> shift // bucketOf, on the local shift
		off := int(tail&mask) * stride
		v := int(i) * bw
		putRec(recs[off:off+stride:off+stride], key, bucket[h], b.Seq[i], ts, b.Arr[i], b.Vals[v:v+bw:v+bw])
		bucket[h] = tail
		tail++
	}
	w.tail = tail
	w.ExpireBefore(maxTs.Add(-w.span))
}

// ExpireBefore removes all tuples with Ts < cutoff (prefix scan from head).
// The key index is not touched: the evicted positions are now below head,
// which is all a chain walk needs to skip them.
func (w *Window) ExpireBefore(cutoff Time) {
	head := w.head
	for head < w.tail && math.Float64frombits(w.rec(head)[recTs]) < float64(cutoff) {
		head++
	}
	w.head = head
}

// AppendMatches appends all buffered records matching key to m, oldest
// first (insertion order), and returns how many were appended: the group
// probe with a group of one. The records are copied out, so m remains valid
// after further window mutation.
func (w *Window) AppendMatches(key int64, m *Matches) int {
	var n [1]int32
	return w.AppendGroupMatches([]int64{key}, n[:], m)
}

// CountGroupMatches is the count pass of a group probe: it sets counts[i]
// to the number of buffered records matching keys[i] and heads[i] to the
// position of the newest of them (0, below every live position, if there is
// none), and returns the total. walk is the count's scratch, its per-key
// cursors. counts, heads and walk must be at least as long as keys; a key
// may repeat. A head is where a later pass re-walks the key's matches from
// (AppendGroupMatches here, or Block.AppendJoin after the window may have
// changed). Records inserted after the count are newer than it, so no walk
// from it reaches them; and a ring growth relinks every record into its own
// key's chain of the new table, so a walk from a record of the key still
// meets all its older matches, where one from a bucket's newest record,
// which may be another key's, would follow that key's chain instead.
//
// It walks all the chains together, one step per key per round: a step is a
// dependent load that usually misses, and the steps of one round are
// independent of each other, so their misses overlap where a chain walked on
// its own waits for each in turn. (The last chain still running, or a group
// of one, is on its own anyway and is walked out in place.)
func (w *Window) CountGroupMatches(keys []int64, counts []int32, heads, walk []uint64) int {
	counts, heads, walk = counts[:len(keys)], heads[:len(keys)], walk[:len(keys)]
	clear(heads)
	if w.head == w.tail {
		clear(counts)
		return 0
	}
	for i, k := range keys {
		walk[i], counts[i] = w.bucket[w.bucketOf(k)], 0
	}
	recs, head, mask, stride := w.recs, w.head, uint64(w.slots-1), w.stride
	total := 0
	for live := len(keys); live > 0; {
		// A chain left on its own has nothing to overlap with: walk it out.
		alone := live == 1
		live = 0
		for i, p := range walk {
			if p < head {
				continue // this key's chain has run out
			}
			for {
				r := recs[int(p&mask)*stride:]
				if int64(r[recKey]) == keys[i] {
					if counts[i] == 0 {
						heads[i] = p
					}
					counts[i]++
					total++
				}
				p = r[recNext]
				if p < head || !alone {
					break
				}
			}
			walk[i] = p
			if p >= head {
				live++
			}
		}
	}
	return total
}

// AppendGroupMatches probes every key of keys at once: it sets counts[i] to
// the number of buffered records matching keys[i] and appends those records
// to m key by key, each key's oldest first — the rows one AppendMatches call
// per key would append — returning the total. counts must be at least as
// long as keys; a key may repeat.
//
// It is CountGroupMatches, then a fill pass that re-walks each chain, now
// cached, as far as the key's oldest match.
func (w *Window) AppendGroupMatches(keys []int64, counts []int32, m *Matches) int {
	n := len(keys)
	if cap(m.walk) < 2*n {
		m.walk = make([]uint64, 2*n)
	}
	heads := m.walk[:n]
	total := w.CountGroupMatches(keys, counts, heads, m.walk[n:])
	if total == 0 {
		return 0
	}
	recs, mask, stride := w.recs, uint64(w.slots-1), w.stride
	if m.Len() == 0 {
		m.width = stride - recFixed
	}
	mw := m.width
	end := len(m.Seq)
	m.Seq = slices.Grow(m.Seq, total)[:end+total]
	m.Ts = slices.Grow(m.Ts, total)[:end+total]
	m.Arr = slices.Grow(m.Arr, total)[:end+total]
	m.Vals = slices.Grow(m.Vals, total*mw)[:(end+total)*mw]
	for i, k := range keys {
		// The chain runs newest → oldest; fill the key's rows back to front.
		start := end
		end += int(counts[i])
		for j, p := end, heads[i]; j > start; {
			r := recs[int(p&mask)*stride:][:stride]
			p = r[recNext]
			if int64(r[recKey]) != k {
				continue
			}
			j--
			m.Seq[j] = r[recSeq]
			m.Ts[j] = Time(math.Float64frombits(r[recTs]))
			m.Arr[j] = Time(math.Float64frombits(r[recArr]))
			copyVals(m.Vals[j*mw:(j+1)*mw], r[recFixed:])
		}
	}
	return total
}

// Snapshot appends every buffered record to b in insertion order (for
// checkpointing). If b's width is not yet fixed it inherits the window's;
// a b sized for another width gets each payload truncated or zero-padded.
func (w *Window) Snapshot(b *Batch) {
	n := w.Len()
	if n == 0 {
		return
	}
	if b.arity == 0 {
		b.arity = w.arity
	}
	bw := b.arity - 1
	base := len(b.Seq)
	b.Seq = slices.Grow(b.Seq, n)[:base+n]
	b.Ts = slices.Grow(b.Ts, n)[:base+n]
	b.Key = slices.Grow(b.Key, n)[:base+n]
	b.Arr = slices.Grow(b.Arr, n)[:base+n]
	b.Vals = slices.Grow(b.Vals, n*bw)[:(base+n)*bw]
	seq, ts, key, arr, vals := b.Seq[base:], b.Ts[base:][:n], b.Key[base:][:n], b.Arr[base:][:n], b.Vals[base*bw:]
	recs, head, mask, stride := w.recs, w.head, uint64(w.slots-1), w.stride
	for i := range seq {
		off := int((head+uint64(i))&mask) * stride
		r := recs[off : off+stride]
		seq[i] = r[recSeq]
		ts[i] = Time(math.Float64frombits(r[recTs]))
		key[i] = int64(r[recKey])
		arr[i] = Time(math.Float64frombits(r[recArr]))
		copyVals(vals[i*bw:(i+1)*bw], r[recFixed:])
	}
}

// copyVals fills the payload row dst from a record's payload words,
// truncating or zero-padding them to dst's width.
func copyVals(dst []float64, src []uint64) {
	n := min(len(dst), len(src))
	for i, u := range src[:n] {
		dst[i] = math.Float64frombits(u)
	}
	for i := n; i < len(dst); i++ { // a plain loop: the pad is nearly always empty
		dst[i] = 0
	}
}

// Reset drops all buffered tuples, keeping capacity and span. Positions are
// not rewound — every record so far simply falls below head — so the index
// needs no clearing.
func (w *Window) Reset() { w.head = w.tail }

// Matches is a columnar probe-result scratch buffer: the records matching a
// sequence of AppendMatches / AppendGroupMatches calls, each ValsAt(i) being
// Width() payload values. Reset before reuse across operators (the width
// follows the first window appended after a Reset). It also carries the group
// probe's per-key newest-match positions and cursors, kept across calls so a
// probe allocates nothing once they have reached the largest group's size. A
// join stage stages nothing here: it writes its matches straight into its
// rows (see Block.AppendJoin).
type Matches struct {
	Seq  []uint64
	Ts   []Time
	Arr  []Time
	Vals []float64

	width int
	walk  []uint64 // the group in hand's newest-match positions, then the count's cursors
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
