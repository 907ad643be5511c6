package stream

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTupleClone(t *testing.T) {
	orig := &Tuple{Stream: "S", Seq: 7, Ts: 1.5, Key: 42, Vals: []float64{1, 2, 3}}
	c := orig.Clone()
	if c == orig {
		t.Fatal("Clone returned the same pointer")
	}
	c.Vals[0] = 99
	if orig.Vals[0] != 1 {
		t.Fatal("Clone shares Vals backing array")
	}
	if c.Stream != "S" || c.Seq != 7 || c.Key != 42 {
		t.Fatalf("Clone lost fields: %+v", c)
	}
}

func TestTupleString(t *testing.T) {
	tu := &Tuple{Stream: "S", Seq: 1, Ts: 2, Key: 3, Vals: []float64{4}}
	if got := tu.String(); got == "" {
		t.Fatal("empty String()")
	}
}

func TestTimeOps(t *testing.T) {
	a, b := Time(1.0), Time(2.5)
	if !a.Before(b) || b.Before(a) {
		t.Fatal("Before wrong")
	}
	if got := b.Sub(a); got != 1.5 {
		t.Fatalf("Sub = %v, want 1.5", got)
	}
	if got := a.Add(0.5); got != 1.5 {
		t.Fatalf("Add = %v, want 1.5", got)
	}
}

func TestJoinedCombines(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "B", "C"})
	j := sch.Acquire()
	j.SetPart(0, 0, 1, 5, 10, []float64{1})
	j.SetPart(1, 0, 3, 5, 5, []float64{2, 3})
	if j.Ts != 3 {
		t.Fatalf("Ts = %v, want max 3", j.Ts)
	}
	if j.Arrival != 5 {
		t.Fatalf("Arrival = %v, want min 5", j.Arrival)
	}
	if j.Len() != 2 || j.Has(2) {
		t.Fatalf("wrong population: len=%d", j.Len())
	}
	got := j.Streams()
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Streams = %v", got)
	}
	if j.Key() != 5 {
		t.Fatalf("Key = %d, want 5", j.Key())
	}
	a, ok := j.Part(0)
	if !ok || a.Stream != "A" || len(a.Vals) != 1 || a.Vals[0] != 1 {
		t.Fatalf("Part(0) = %+v", a)
	}
	b, ok := j.PartByStream("B")
	if !ok || b.Vals[1] != 3 {
		t.Fatalf("PartByStream(B) = %+v", b)
	}
	if v, ok := j.Val(1, 0); !ok || v != 2 {
		t.Fatalf("Val(1,0) = %v, %v", v, ok)
	}
	if _, ok := j.Val(2, 0); ok {
		t.Fatal("Val on empty slot must be !ok")
	}
	j.Release()
}

func TestBlockCloneWith(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "C"})
	j := sch.Acquire()
	j.SetPart(0, 0, 1, 9, 4, []float64{7})
	blk := sch.AcquireBlock(1, 2)
	j2 := blk.CloneWith(j, 1, 11, 9, 9, 1, []float64{8})
	if j.Len() != 1 {
		t.Fatal("CloneWith mutated the original")
	}
	if j2.Len() != 2 || j2.Ts != 9 || j2.Arrival != 1 {
		t.Fatalf("CloneWith wrong: len=%d ts=%v arr=%v", j2.Len(), j2.Ts, j2.Arrival)
	}
	// The clone's parts must not alias the original's vals buffer.
	a, _ := j2.Part(0)
	if a.Vals[0] != 7 {
		t.Fatalf("clone lost original part: %v", a.Vals)
	}
	j.Release()
	c, _ := j2.Part(1)
	if c.Seq != 11 || c.Vals[0] != 8 {
		t.Fatalf("Part(1) = %+v", c)
	}
	j2.Release()
	if acq, rec := sch.BlockCounts(); acq != 1 || rec != 1 {
		t.Fatalf("releasing the block's only row: %d acquired, %d recycled", acq, rec)
	}
}

// probeSeqs materializes a window probe as a seq slice (test helper).
func probeSeqs(w *Window, key int64) []uint64 {
	var m Matches
	w.AppendMatches(key, &m)
	return m.Seq
}

func TestWindowInsertProbe(t *testing.T) {
	w := NewWindow(10)
	for i := 0; i < 5; i++ {
		w.Insert(&Tuple{Stream: "S", Seq: uint64(i), Ts: Time(i), Key: int64(i % 2)})
	}
	if w.Len() != 5 {
		t.Fatalf("Len = %d, want 5", w.Len())
	}
	if got := probeSeqs(w, 0); len(got) != 3 {
		t.Fatalf("Probe(0) = %d matches, want 3", len(got))
	}
	if got := probeSeqs(w, 1); len(got) != 2 {
		t.Fatalf("Probe(1) = %d matches, want 2", len(got))
	}
	if distinctKeys(w) != 2 {
		t.Fatalf("Keys = %d, want 2", distinctKeys(w))
	}
}

func TestWindowProbeOrderOldestFirst(t *testing.T) {
	w := NewWindow(100)
	for i := 0; i < 6; i++ {
		w.Insert(&Tuple{Seq: uint64(i), Ts: Time(i), Key: 1, Vals: []float64{float64(i)}})
	}
	got := probeSeqs(w, 1)
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("probe order not oldest-first: %v", got)
		}
	}
}

func TestWindowExpiration(t *testing.T) {
	w := NewWindow(5)
	for i := 0; i <= 10; i++ {
		w.Insert(&Tuple{Stream: "S", Seq: uint64(i), Ts: Time(i), Key: 0})
	}
	// After inserting ts=10 with span 5, tuples with ts < 5 are gone.
	if w.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (ts 5..10)", w.Len())
	}
	snap := NewBatch("S")
	w.Snapshot(snap)
	for i := 0; i < snap.Len(); i++ {
		if snap.Ts[i] < 5 {
			t.Fatalf("expired tuple still present: ts=%v", snap.Ts[i])
		}
	}
	if got := probeSeqs(w, 0); len(got) != 6 {
		t.Fatalf("Probe after expire = %d, want 6", len(got))
	}
}

func TestWindowExpireRemovesKeyEntries(t *testing.T) {
	w := NewWindow(1)
	w.Insert(&Tuple{Ts: 0, Key: 7})
	w.Insert(&Tuple{Ts: 10, Key: 8}) // expires key 7 entirely
	if got := probeSeqs(w, 7); len(got) != 0 {
		t.Fatalf("Probe(7) = %d, want 0", len(got))
	}
	if distinctKeys(w) != 1 {
		t.Fatalf("Keys = %d, want 1", distinctKeys(w))
	}
}

func TestWindowZeroSpanGuard(t *testing.T) {
	w := NewWindow(0)
	if w.Span() <= 0 {
		t.Fatal("span must be positive after guard")
	}
	w.Insert(&Tuple{Ts: 1, Key: 1})
	if w.Len() != 1 {
		t.Fatal("insert failed on guarded window")
	}
}

func TestWindowGrowKeepsChains(t *testing.T) {
	w := NewWindow(1e9)
	const n = 500 // forces several capacity doublings
	for i := 0; i < n; i++ {
		w.Insert(&Tuple{Seq: uint64(i), Ts: Time(i), Key: int64(i % 7), Vals: []float64{float64(i), -float64(i)}})
	}
	if w.Len() != n {
		t.Fatalf("Len = %d, want %d", w.Len(), n)
	}
	total := 0
	for k := int64(0); k < 7; k++ {
		var m Matches
		w.AppendMatches(k, &m)
		total += m.Len()
		for i := 0; i < m.Len(); i++ {
			if m.Seq[i]%7 != uint64(k) {
				t.Fatalf("key %d chain contains seq %d", k, m.Seq[i])
			}
			if m.ValsAt(i)[0] != float64(m.Seq[i]) {
				t.Fatalf("payload mismatch at seq %d", m.Seq[i])
			}
		}
	}
	if total != n {
		t.Fatalf("chains cover %d records, want %d", total, n)
	}
}

// TestWindowForeignKeysShareAChain is the index's degenerate case: every key
// hashes to one bucket, so the single chain holds all records of all keys
// and a probe must pick its own out by comparing the key column — through
// three ring doublings (each rebuilds the chain) and a partial expiry.
func TestWindowForeignKeysShareAChain(t *testing.T) {
	const nKeys, n = 10, 500
	keys := make([]int64, nKeys)
	for i := range keys {
		keys[i] = sameBucketKey(0xABCDE, uint64(i)*7919)
	}
	stranger := sameBucketKey(0xABCDE, 1<<40) // same bucket, never inserted
	w := NewWindow(1e9)
	for i := 0; i < n; i++ {
		w.Insert(&Tuple{Seq: uint64(i), Ts: Time(i), Key: keys[i%nKeys], Vals: []float64{float64(i)}})
	}
	if ringCap(w) < n {
		t.Fatalf("ring capacity %d: the window never grew", ringCap(w))
	}
	for _, k := range append(keys, stranger) {
		if w.bucketOf(k) != w.bucketOf(keys[0]) {
			t.Fatalf("key %d is not in the shared bucket", k)
		}
	}
	check := func(from int) {
		t.Helper()
		for ki, k := range keys {
			var want []uint64
			for i := ki; i < n; i += nKeys {
				if i >= from {
					want = append(want, uint64(i))
				}
			}
			if got := probeSeqs(w, k); !slices.Equal(got, want) {
				t.Fatalf("after expiring below %d: probe(key %d) = %v, want %v", from, ki, got, want)
			}
		}
		if got := probeSeqs(w, stranger); len(got) != 0 {
			t.Fatalf("a key that was never inserted matched %v", got)
		}
	}
	check(0)
	w.ExpireBefore(237)
	check(237)
}

// TestWindowSnapshotWrappedRing: the live records straddle the end of the
// ring, and the snapshot must still equal the insertion order, into a
// destination of the window's width or another.
func TestWindowSnapshotWrappedRing(t *testing.T) {
	w := NewWindow(40)
	const n = 230
	for i := 0; i < n; i++ {
		w.Insert(&Tuple{Seq: uint64(i), Ts: Time(i), Key: int64(i % 5), Arrival: Time(i) + 0.5, Vals: []float64{float64(i), -float64(i)}})
	}
	lo := int(w.head & uint64(ringCap(w)-1))
	if lo+w.Len() <= ringCap(w) {
		t.Fatalf("live records [%d,+%d) do not wrap a ring of %d", lo, w.Len(), ringCap(w))
	}
	first := n - w.Len()
	for _, width := range []int{-1, 2, 1, 3} {
		snap, kept := NewBatch("S"), 0 // width -1: unfixed, inherits the window's
		if width >= 0 {
			snap, kept = NewSizedBatch("S", width, 0), 1
			snap.AppendRow(999, 0, 0, 0) // Snapshot appends: what is there stays
		}
		w.Snapshot(snap)
		if snap.Len() != kept+w.Len() || (kept == 1 && snap.Seq[0] != 999) {
			t.Fatalf("width %d: %d rows, first seq %d", width, snap.Len(), snap.Seq[0])
		}
		for i := kept; i < snap.Len(); i++ {
			want := float64(first + i - kept)
			if snap.Seq[i] != uint64(want) || snap.Ts[i] != Time(want) || snap.Key[i] != int64(want)%5 || snap.Arr[i] != Time(want)+0.5 {
				t.Fatalf("width %d: row %d = seq %d ts %v key %d arr %v, want tuple %v", width, i, snap.Seq[i], snap.Ts[i], snap.Key[i], snap.Arr[i], want)
			}
			full := []float64{want, -want, 0}
			if got := snap.ValsAt(i); !slices.Equal(got, full[:len(got)]) {
				t.Fatalf("width %d: row %d payload %v, want a prefix of %v", width, i, got, full)
			}
		}
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(10)
	for i := 0; i < 5; i++ {
		w.Insert(&Tuple{Seq: uint64(i), Ts: Time(i), Key: 1})
	}
	w.Reset()
	if w.Len() != 0 || distinctKeys(w) != 0 {
		t.Fatalf("Reset left %d tuples, %d keys", w.Len(), distinctKeys(w))
	}
	w.Insert(&Tuple{Seq: 9, Ts: 1, Key: 1})
	if got := probeSeqs(w, 1); len(got) != 1 || got[0] != 9 {
		t.Fatalf("probe after reset = %v", got)
	}
}

// Property: window never retains a tuple older than span behind the max
// timestamp, and a probe returns exactly the retained tuples with that key.
func TestWindowInvariantQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		w := NewWindow(5)
		var maxTs Time
		ts := 0.0
		for i := 0; i < n; i++ {
			ts += rng.Float64() * 2
			tu := &Tuple{Stream: "S", Seq: uint64(i), Ts: Time(ts), Key: int64(rng.Intn(4))}
			w.Insert(tu)
			if tu.Ts > maxTs {
				maxTs = tu.Ts
			}
		}
		cutoff := maxTs.Add(-w.Span())
		snap := NewBatch("S")
		w.Snapshot(snap)
		counts := map[int64]int{}
		for i := 0; i < snap.Len(); i++ {
			if snap.Ts[i].Before(cutoff) {
				return false
			}
			counts[snap.Key[i]]++
		}
		for k := int64(0); k < 4; k++ {
			if len(probeSeqs(w, k)) != counts[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSpan(t *testing.T) {
	b := NewBatch("S")
	if b.Span() != 0 {
		t.Fatal("empty batch span must be 0")
	}
	b.Append(&Tuple{Ts: 1})
	if b.Span() != 0 {
		t.Fatal("single-tuple span must be 0")
	}
	b.Append(&Tuple{Ts: 4})
	if b.Span() != 3 {
		t.Fatalf("span = %v, want 3", b.Span())
	}
}

func TestBatchColumnar(t *testing.T) {
	b := NewSizedBatch("S", 2, 4)
	if b.Width() != 2 {
		t.Fatalf("Width = %d, want 2", b.Width())
	}
	row := b.AppendRow(0, 1.5, 42, 1.5)
	row[0], row[1] = 10, 20
	b.Append(&Tuple{Seq: 1, Ts: 2.5, Key: 43, Arrival: 2.5, Vals: []float64{30}}) // zero-padded
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.ValsAt(0); got[0] != 10 || got[1] != 20 {
		t.Fatalf("ValsAt(0) = %v", got)
	}
	if got := b.ValsAt(1); got[0] != 30 || got[1] != 0 {
		t.Fatalf("ValsAt(1) = %v", got)
	}
	tu := b.TupleAt(1)
	if tu.Stream != "S" || tu.Seq != 1 || tu.Key != 43 || tu.Vals[0] != 30 {
		t.Fatalf("TupleAt(1) = %+v", tu)
	}
	if b.FirstTs() != 1.5 || b.LastTs() != 2.5 || b.MaxTs() != 2.5 {
		t.Fatalf("ts accessors: %v %v %v", b.FirstTs(), b.LastTs(), b.MaxTs())
	}
	b.Truncate(1)
	if b.Len() != 1 || len(b.Vals) != 2 {
		t.Fatalf("Truncate: len=%d vals=%d", b.Len(), len(b.Vals))
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := AcquireBatch("S", 1)
	b.AppendRow(0, 1, 7, 1)[0] = 3.5
	if b.Len() != 1 || b.Width() != 1 {
		t.Fatalf("acquired batch wrong: len=%d width=%d", b.Len(), b.Width())
	}
	b.Release()
	b2 := AcquireBatch("T", 3)
	if b2.Len() != 0 || b2.Width() != 3 || b2.Plan != -1 {
		t.Fatalf("reacquired batch dirty: len=%d width=%d plan=%d", b2.Len(), b2.Width(), b2.Plan)
	}
	b2.Release()
}
