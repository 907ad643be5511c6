package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleWindow is the seed's boxed sliding-window implementation, kept
// verbatim as a test oracle for the ring-buffer Window.
type oracleWindow struct {
	span   float64
	tuples []*Tuple
	byKey  map[int64][]*Tuple
}

func newOracleWindow(span float64) *oracleWindow {
	if span <= 0 {
		span = 1e-9
	}
	return &oracleWindow{span: span, byKey: make(map[int64][]*Tuple)}
}

func (w *oracleWindow) insert(t *Tuple) {
	w.tuples = append(w.tuples, t)
	w.byKey[t.Key] = append(w.byKey[t.Key], t)
	w.expireBefore(t.Ts.Add(-w.span))
}

func (w *oracleWindow) expireBefore(cutoff Time) {
	i := 0
	for i < len(w.tuples) && w.tuples[i].Ts.Before(cutoff) {
		i++
	}
	if i == 0 {
		return
	}
	for _, old := range w.tuples[:i] {
		ks := w.byKey[old.Key]
		for j, kt := range ks {
			if kt == old {
				ks = append(ks[:j], ks[j+1:]...)
				break
			}
		}
		if len(ks) == 0 {
			delete(w.byKey, old.Key)
		} else {
			w.byKey[old.Key] = ks
		}
	}
	rest := make([]*Tuple, len(w.tuples)-i)
	copy(rest, w.tuples[i:])
	w.tuples = rest
}

func (w *oracleWindow) probe(key int64) []*Tuple { return w.byKey[key] }

// hashMulInv is hashMul's inverse modulo 2^64 (Newton's iteration doubles
// the correct low bits each round), so key = hash × hashMulInv is the key
// with a chosen hash.
var hashMulInv = func() uint64 {
	inv := uint64(hashMul) // correct to 3 bits: an odd x is its own inverse mod 8
	for i := 0; i < 5; i++ {
		inv *= 2 - hashMul*inv
	}
	return inv
}()

// sameBucketKey returns a key whose hash is bucket in its top 20 bits and
// low in the rest: keys built from one bucket value share a bucket in every
// table of up to 2^20 buckets, however often the window grows.
func sameBucketKey(bucket, low uint64) int64 {
	return int64((bucket<<44 | low&(1<<44-1)) * hashMulInv)
}

// oracleKeys draws the key set for one equivalence run. The first return is
// the keys rows are drawn from, the second a few more that are probed but
// never inserted. Beyond the seed's "at most 8 keys", the kinds cover what
// a bucket-chain index can get wrong: a chain that holds foreign keys.
func oracleKeys(rng *rand.Rand) (inserted, absent []int64) {
	var keys []int64
	switch kind := rng.Intn(7); kind {
	case 0: // a handful of keys: long chains, one key each
		for k := 0; k < 1+rng.Intn(8); k++ {
			keys = append(keys, int64(k))
		}
	case 1: // a few thousand dense keys: short chains, many buckets
		for k := 0; k < 16+rng.Intn(4000); k++ {
			keys = append(keys, int64(k))
		}
	case 2: // negative keys, down to the minimum int64
		for k := 0; k < 1+rng.Intn(300); k++ {
			keys = append(keys, -int64(k)-1, math.MinInt64+int64(k))
		}
	case 3: // only high bits set
		for k := 0; k < 1+rng.Intn(300); k++ {
			keys = append(keys, int64(k+1)<<48, int64(k+1)<<56)
		}
	case 4: // constant low bits, as inside one engine shard
		low := int64(rng.Intn(16))
		for k := 0; k < 1+rng.Intn(2000); k++ {
			keys = append(keys, int64(k)<<4|low)
		}
	default: // kind 5: one to four buckets shared by many keys; kind 6: all keys in one bucket
		buckets := 1
		if kind == 5 {
			buckets += rng.Intn(4)
		}
		for b := 0; b < buckets; b++ {
			bucket := rng.Uint64() >> 44
			for k := 0; k < 2+rng.Intn(40); k++ {
				keys = append(keys, sameBucketKey(bucket, rng.Uint64()))
			}
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	nAbsent := min(len(keys)/4, 8)
	return keys[nAbsent:], keys[:nAbsent]
}

// checkSnapshot compares w.Snapshot into a batch of the given payload width
// (-1: unfixed, inherit the window's) with the oracle's retained tuples,
// payloads truncated or zero-padded row by row.
func checkSnapshot(t *testing.T, w *Window, o *oracleWindow, width int, where string) {
	t.Helper()
	snap := NewBatch("S")
	if width >= 0 {
		snap = NewSizedBatch("S", width, 0)
	}
	w.Snapshot(snap)
	if snap.Len() != len(o.tuples) {
		t.Fatalf("%s: snapshot(width %d) has %d rows, oracle %d", where, width, snap.Len(), len(o.tuples))
	}
	if len(o.tuples) == 0 {
		return
	}
	if width < 0 {
		width = w.Width()
	}
	if snap.Width() != width || len(snap.Vals) != snap.Len()*width {
		t.Fatalf("%s: snapshot width %d with %d values for %d rows, want width %d",
			where, snap.Width(), len(snap.Vals), snap.Len(), width)
	}
	for i, ot := range o.tuples {
		if snap.Seq[i] != ot.Seq || snap.Ts[i] != ot.Ts || snap.Key[i] != ot.Key || snap.Arr[i] != ot.Arrival {
			t.Fatalf("%s: snapshot(width %d)[%d] = seq %d key %d, oracle %+v", where, width, i, snap.Seq[i], snap.Key[i], ot)
		}
		for vi, v := range snap.ValsAt(i) {
			want := 0.0
			if vi < len(ot.Vals) {
				want = ot.Vals[vi]
			}
			if v != want {
				t.Fatalf("%s: snapshot(width %d)[%d] payload[%d] = %v, want %v", where, width, i, vi, v, want)
			}
		}
	}
}

// groupSizes are the group-probe sizes checkGroups draws from: the empty
// group, the group of one every small batch degenerates to, and up to more
// keys than any shard sees in one stage.
var groupSizes = []int{0, 1, 1, 2, 3, 5, 8, 16, 33, 64}

// checkGroups re-issues one probe round's keys — shuffled, some repeated,
// one repeated back to back — as group probes of random sizes appended to a
// single Matches, and asserts that the groups' output equals the
// concatenation of one-key probes over the same sequence, and every count
// both the one-key probe's and the oracle's.
func checkGroups(t *testing.T, rng *rand.Rand, w *Window, o *oracleWindow, round []int64, where string) {
	t.Helper()
	keys := slices.Clone(round)
	for i := 0; i <= len(round)/4; i++ {
		keys = append(keys, round[rng.Intn(len(round))])
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	dup := round[rng.Intn(len(round))]
	keys = append(keys, dup, dup)

	var grouped, singles Matches
	for lo := 0; lo < len(keys); {
		group := keys[lo:min(lo+groupSizes[rng.Intn(len(groupSizes))], len(keys))]
		lo += len(group)
		counts := make([]int32, len(group)+1)
		for i := range counts {
			counts[i] = -7 // stale: the probe must overwrite its keys' counts, and only those
		}
		before := grouped.Len()
		total := w.AppendGroupMatches(group, counts, &grouped)
		sum := 0
		for i, k := range group {
			n := w.AppendMatches(k, &singles)
			if int(counts[i]) != n || n != len(o.probe(k)) {
				t.Fatalf("%s: group of %d, key %d (#%d): count %d, one-key probe %d, oracle %d",
					where, len(group), k, i, counts[i], n, len(o.probe(k)))
			}
			sum += n
		}
		if total != sum || grouped.Len()-before != sum || counts[len(group)] != -7 {
			t.Fatalf("%s: group of %d returned %d and appended %d rows, want %d (count past the group: %d)",
				where, len(group), total, grouped.Len()-before, sum, counts[len(group)])
		}
	}
	if grouped.Width() != singles.Width() || !slices.Equal(grouped.Seq, singles.Seq) || !slices.Equal(grouped.Ts, singles.Ts) ||
		!slices.Equal(grouped.Arr, singles.Arr) || !slices.Equal(grouped.Vals, singles.Vals) {
		t.Fatalf("%s: group probes over %d keys appended seqs %v, one-key probes %v", where, len(keys), grouped.Seq, singles.Seq)
	}
}

// checkWindowEquivalence drives the same randomized, batched, out-of-order
// tuple sequence through the boxed oracle (per-tuple insert) and the
// row-major Window (InsertRows + single deferred expiration), asserting
// identical join (probe) outputs at every batch boundary — key by key
// against the oracle, then the same keys again as group probes
// (checkGroups) — and identical retained/expired sets after every batch.
// The seed also picks the key set (oracleKeys), how many tuples a span holds
// (a few, so the ring stays at its first size, or hundreds, so it grows
// while chains are mixed and then wraps), and the batches after which the
// window is Reset and reused; so groups are issued across grows, ring wraps,
// partial expiries and Resets, with absent and same-bucket foreign keys
// among them. A generator of its own adds what the seed's sequence does not
// cover: batches of another payload width than the window's, which it
// truncates or zero-pads (the oracle keeps each payload as the window
// should), and, after one batch, a single InsertRows call of more than four
// times the ring's capacity, which must grow it, several doublings at once,
// to the capacity growing when full before each row would reach.
func checkWindowEquivalence(t *testing.T, seed int64, nBatches int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	span := 1 + rng.Float64()*9
	keys, absent := oracleKeys(rng)
	width := rng.Intn(3)
	perSpan := []float64{4, 64, 1024}[rng.Intn(3)] // mean tuples per span is twice this

	w := NewWindow(span)
	o := newOracleWindow(span)

	ts := 0.0
	seq := uint64(0)
	var m Matches
	var lastKeys, round []int64
	grng := rand.New(rand.NewSource(seed ^ 0x67726f7570)) // group draws must not shift the sequence the seed stands for
	xrng := rand.New(rand.NewSource(seed ^ 0x62756c6b))   // nor may the width and bulk draws
	bulkAt := xrng.Intn(nBatches)
	probe := func(bi int, k int64) {
		round = append(round, k)
		m.Reset()
		w.AppendMatches(k, &m)
		want := o.probe(k)
		if m.Len() != len(want) {
			t.Fatalf("seed %d batch %d: probe(%d) = %d matches, oracle %d",
				seed, bi, k, m.Len(), len(want))
		}
		for i, wt := range want {
			if m.Seq[i] != wt.Seq || m.Ts[i] != wt.Ts || m.Arr[i] != wt.Arrival {
				t.Fatalf("seed %d batch %d: probe(%d)[%d] = seq %d ts %v, oracle %+v",
					seed, bi, k, i, m.Seq[i], m.Ts[i], wt)
			}
			for vi, v := range wt.Vals {
				if m.ValsAt(i)[vi] != v {
					t.Fatalf("seed %d batch %d: probe(%d)[%d] payload mismatch", seed, bi, k, i)
				}
			}
		}
	}
	// insert feeds the oracle per tuple and the window the whole batch.
	insert := func(b *Batch, rows []int32, where string) {
		for i := range b.Len() {
			o.insert(fitTuple(b.TupleAt(i), w, b))
		}
		w.InsertRows(b, rows)

		// Expiration sets: the retained sequences must match exactly,
		// whatever the destination's width.
		if w.Len() != len(o.tuples) || distinctKeys(w) != len(o.byKey) {
			t.Fatalf("%s: Len/keys = %d/%d, oracle %d/%d",
				where, w.Len(), distinctKeys(w), len(o.tuples), len(o.byKey))
		}
		checkSnapshot(t, w, o, -1, where)
		checkSnapshot(t, w, o, width+1, where)
		if width > 0 {
			checkSnapshot(t, w, o, width-1, where)
		}
	}
	for bi := 0; bi < nBatches; bi++ {
		// Join outputs, before inserting: every key of a small set, else a
		// sample plus the keys the last batch wrote; and keys never inserted.
		if len(keys) <= 64 {
			for _, k := range keys {
				probe(bi, k)
			}
		} else {
			for i := 0; i < 48; i++ {
				probe(bi, keys[rng.Intn(len(keys))])
			}
			for _, k := range lastKeys {
				probe(bi, k)
			}
		}
		for _, k := range absent {
			probe(bi, k)
		}
		checkGroups(t, grng, w, o, round, fmt.Sprintf("seed %d batch %d", seed, bi))
		round = round[:0]

		// Build one batch with jittered (out-of-order) timestamps.
		n := 1 + rng.Intn(40)
		b := NewSizedBatch("S", width, n)
		rows := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			ts += rng.Float64() * span / perSpan
			jitter := rng.Float64() * span / (2 * perSpan) // rows within a batch may regress
			rts := Time(ts - jitter)
			row := b.AppendRow(seq, rts, keys[rng.Intn(len(keys))], rts)
			for vi := range row {
				row[vi] = rng.NormFloat64()
			}
			rows = append(rows, int32(i))
			seq++
		}
		lastKeys = append(lastKeys[:0], b.Key...)
		if xrng.Intn(4) == 0 {
			b = rewiden(xrng, b, xrng.Intn(4))
		}

		where := fmt.Sprintf("seed %d batch %d", seed, bi)
		insert(b, rows, where)

		if bi == bulkAt {
			// One call of over four rings' worth of rows, spread over one
			// mean gap between tuples, so next to nothing expires before it
			// ends.
			n := 4*max(w.slots, minRing) + 1 + xrng.Intn(64)
			want := max(w.slots, minRing)
			for want < w.Len()+n {
				want *= 2
			}
			bulk := NewSizedBatch("S", xrng.Intn(4), n)
			all := make([]int32, n)
			for i := range all {
				ts += xrng.Float64() * 2 * span / perSpan / float64(n)
				row := bulk.AppendRow(seq, Time(ts), keys[xrng.Intn(len(keys))], Time(ts))
				for vi := range row {
					row[vi] = xrng.NormFloat64()
				}
				all[i] = int32(i)
				seq++
			}
			insert(bulk, all, where+" (bulk)")
			if w.slots != want {
				t.Fatalf("%s: %d rows in one call left the ring at %d slots, want %d", where, n, w.slots, want)
			}
		}

		if rng.Intn(16) == 0 {
			w.Reset()
			o = newOracleWindow(span)
			if w.Len() != 0 {
				t.Fatalf("%s: Reset left %d tuples", where, w.Len())
			}
		}
	}
}

// rewiden returns b's rows as a batch of the given payload width, each
// payload truncated or extended with fresh values.
func rewiden(rng *rand.Rand, b *Batch, width int) *Batch {
	out := NewSizedBatch(b.Stream, width, b.Len())
	for i := range b.Len() {
		row := out.AppendRow(b.Seq[i], b.Ts[i], b.Key[i], b.Arr[i])
		n := copy(row, b.ValsAt(i))
		for vi := n; vi < len(row); vi++ {
			row[vi] = rng.NormFloat64()
		}
	}
	return out
}

// fitTuple is the oracle's copy of tu as window w stores it: the payload
// truncated or zero-padded to w's width, which b fixes if nothing has yet.
func fitTuple(tu Tuple, w *Window, b *Batch) *Tuple {
	width := w.Width()
	if width < 0 {
		width = max(b.Width(), 0)
	}
	c := tu.Clone()
	c.Vals = make([]float64, width)
	copy(c.Vals, tu.Vals)
	return c
}

func TestWindowMatchesBoxedOracle(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		checkWindowEquivalence(t, seed, 30)
	}
}

// FuzzWindowOracleEquivalence explores the same property under fuzzing; the
// seed corpus is exercised on every plain `go test` run.
func FuzzWindowOracleEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(50))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nBatches uint8) {
		checkWindowEquivalence(t, seed, int(nBatches)%64+1)
	})
}
