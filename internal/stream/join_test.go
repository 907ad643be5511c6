package stream

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"
)

// TestAppendJoinInterleavings: a join stage counts its probes' matches
// under a shard's lock and writes them later, under it again, so other
// stages' inserts, expiries and resets may come in between. For each such
// interleaving — none, an expiry part-way along the chains, inserts that
// grow the ring, inserts that wrap it over expired slots, a Reset — and with
// and without a fanout cap, AppendJoin's rows for three probes written into
// one block (a row of another block, an Acquired singleton and an empty
// one) must equal an Acquire+SetPart chain over a single-key probe of the
// window as it is at fill time, less the records newer than the saved head
// and cut to the keep oldest of those counted. Released, every block goes
// back (BlockCounts reads acquired == recycled); delivered, the block the
// rows fill is stolen whole by Detach when they fill half of it.
//
// Each case runs over two key sets. In the first every key has a bucket of
// its own at both ring sizes. In the second two probed keys share a bucket
// in the first ring's table, the other one's records being that bucket's
// newest, and part in the grown ring's: a growth relinks each record into
// its own key's new chain, so a walk must start from a record of its key.
func TestAppendJoinInterleavings(t *testing.T) {
	const slot, n = 1, 200 // n records, ts 0…n-1, keys cycling through a key set
	const ring, grown = 256, 1024
	a, b := splitKeys(ring, grown)
	keySets := [][]int64{{0, 1, 2, 3}, {0, a, b, b + 1}}
	mutations := []struct {
		name  string
		grows bool // the ring
		do    func(w *Window, keys []int64)
	}{
		{"none", false, func(*Window, []int64) {}},
		{"expire", false, func(w *Window, _ []int64) { w.ExpireBefore(80) }},
		{"grow", true, func(w *Window, keys []int64) { fillWindow(w, n, 3*n, keys) }},
		// 50 records stay live in 256 slots; 100 more wrap over expired ones.
		{"expire+wrap", false, func(w *Window, keys []int64) { w.ExpireBefore(150); fillWindow(w, n, n/2, keys) }},
		{"reset", false, func(w *Window, _ []int64) { w.Reset() }},
	}
	for _, keys := range keySets {
		for _, width := range []int{0, 1, 3} {
			for _, fanout := range []int{0, 5} {
				for _, mut := range mutations {
					for _, deliver := range []bool{false, true} {
						where := fmt.Sprintf("keys %v, width %d, fanout %d, %s, deliver %v", keys, width, fanout, mut.name, deliver)
						w := NewWindow(1e6)
						w.arity = width + 1
						fillWindow(w, 0, n, keys)
						if ringCap(w) != ring {
							t.Fatalf("%s: a ring of %d slots, the keys were chosen for %d", where, ringCap(w), ring)
						}
						checkInterleaving(t, w, keys, fanout, deliver, func() {
							mut.do(w, keys)
							want := ring
							if mut.grows {
								want = grown
							}
							if ringCap(w) != want {
								t.Fatalf("%s: ring of %d slots became %d, want %d", where, ring, ringCap(w), want)
							}
						}, slot, where)
					}
				}
			}
		}
	}
}

// splitKeys returns the smallest keys 0 < a < b that share a bucket in the
// table of a ring of the given slots and fall in different buckets in that
// of a ring of grown slots.
func splitKeys(slots, grown int) (a, b int64) {
	bucket := func(k int64, slots int) uint64 {
		return uint64(k) * hashMul >> (64 - bits.TrailingZeros(uint(slots*bucketsPerSlot)))
	}
	for b = 2; ; b++ {
		for a = 1; a < b; a++ {
			if bucket(a, slots) == bucket(b, slots) && bucket(a, grown) != bucket(b, grown) {
				return a, b
			}
		}
	}
}

// fillWindow inserts count records of w's width from sequence number seq0
// on, with timestamps equal to their sequence numbers and keys cycling
// through keys.
func fillWindow(w *Window, seq0, count int, keys []int64) {
	b := NewSizedBatch("B", w.Width(), count)
	for i := seq0; i < seq0+count; i++ {
		row := b.AppendRow(uint64(i), Time(i), keys[i%len(keys)], Time(i)+0.5)
		for v := range row {
			row[v] = float64(i) + float64(v)/10
		}
	}
	rows := make([]int32, count)
	for i := range rows {
		rows[i] = int32(i)
	}
	w.InsertRows(b, rows)
}

// checkInterleaving is one case of TestAppendJoinInterleavings: count
// against w, whose keys cycle through keys (keys[0] being 0, an empty row's
// key), mutate it, fill, compare, then release (deliver false) or Detach
// (true).
func checkInterleaving(t *testing.T, w *Window, keys []int64, fanout int, deliver bool, mutate func(), slot int, where string) {
	t.Helper()
	sch := NewJoinSchema([]string{"A", "B", "C"})
	width := w.Width()

	// The probes: a row of another block holding slots 0 and 2 (key
	// keys[2]), an Acquired singleton holding slot 0 (keys[1]), and an empty
	// singleton (0).
	in := sch.AcquireBlock(1, 3)
	blockRow := in.Seed(0, 900, 10, keys[2], 3, []float64{1, 2})
	in.AddPart(blockRow, 2, 901, 500, keys[2], 1, 1)[0] = 3
	single := sch.Acquire()
	single.SetPart(0, 902, 250, keys[1], 0.25, []float64{4})
	probes := []*Joined{blockRow, single, sch.Acquire()}
	keys = []int64{keys[2], keys[1], keys[0]}

	counts, heads := make([]int32, len(keys)), make([]uint64, len(keys))
	w.CountGroupMatches(keys, counts, heads, make([]uint64, len(keys)))
	counted := make([][]uint64, len(keys)) // each probe's kept seqs at count time
	rows, nvals := 0, 0
	for i, k := range keys {
		seqs := probeSeqs(w, k)
		if len(seqs) != int(counts[i]) {
			t.Fatalf("%s: key %d counted %d matches, a probe finds %d", where, k, counts[i], len(seqs))
		}
		keep := len(seqs)
		if fanout > 0 {
			keep = min(keep, fanout)
		}
		counted[i] = seqs[:keep]
		rows += keep
		nvals += keep * (probes[i].NumVals() + width)
	}

	mutate()

	blk := sch.AcquireBlock(rows, nvals)
	var out []*Joined
	var want []joinedView
	var m Matches
	for i, p := range probes {
		keep := len(counted[i])
		n := blk.AppendJoin(p, slot, w, heads[i], int(counts[i]), keep)
		out = blk.AppendRows(out, len(out), n)
		m.Reset()
		w.AppendMatches(keys[i], &m)
		for r := 0; r < m.Len(); r++ {
			if !slices.Contains(counted[i], m.Seq[r]) {
				continue // newer than the saved head, or past the cut
			}
			ref := sch.Acquire()
			for s := 0; s < sch.Len(); s++ {
				if tu, ok := p.Part(s); ok {
					ref.SetPart(s, tu.Seq, tu.Ts, tu.Key, tu.Arrival, tu.Vals)
				}
			}
			ref.SetPart(slot, m.Seq[r], m.Ts[r], keys[i], m.Arr[r], m.ValsAt(r))
			want = append(want, viewOf(ref, sch.Len()))
			ref.Release()
		}
	}
	if len(out) != len(want) {
		t.Fatalf("%s: %d rows, the reference has %d", where, len(out), len(want))
	}
	for i, j := range out {
		if got := viewOf(j, sch.Len()); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: row %d = %+v, want %+v", where, i, got, want[i])
		}
	}
	for _, p := range probes {
		p.Release()
	}

	blk.Discard() // a no-op unless every walk fell below the window's head
	if deliver {
		if _, capRows := blockClass(rows); len(out) > 0 && 2*len(out) >= capRows {
			if got := Detach(out); got[0] != out[0] {
				t.Fatalf("%s: Detach copied %d rows of a %d-row block instead of stealing it", where, len(out), capRows)
			}
		}
		return
	}
	for _, j := range out {
		j.Release()
	}
	if acq, rec := sch.BlockCounts(); acq != rec {
		t.Fatalf("%s: %d blocks acquired, %d recycled", where, acq, rec)
	}
}
