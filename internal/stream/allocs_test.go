//go:build !race

package stream

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestDetachAllocs pins Detach at O(1) allocations per call: four when it
// copies (the returned slice, and one block's header and two slabs), one when
// it steals (the returned slice; the fresh block the pipeline then has to
// make is the other side of that trade, counted here too). (The race
// detector changes allocation behaviour; the file is excluded under -race.)
func TestDetachAllocs(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "B"})
	src := make([]*Joined, 200)
	for i := range src {
		src[i] = sch.Acquire()
		src[i].SetPart(0, uint64(i), 1, 1, 1, []float64{1})
		src[i].SetPart(1, uint64(i), 1, 1, 1, []float64{2})
	}
	if n := testing.AllocsPerRun(20, func() { Detach(src) }); n > 4 {
		t.Fatalf("copying Detach of %d tuples made %v allocations, want <= 4", len(src), n)
	}
	for _, j := range src {
		j.Release()
	}
	fill := func() {
		blk := sch.AcquireBlock(len(src), len(src))
		for i := range src {
			src[i] = blk.Seed(0, uint64(i), 1, 1, 1, []float64{1})
		}
	}
	fill()
	stolen := 0
	n := testing.AllocsPerRun(20, func() {
		if out := Detach(src); out[0] == src[0] {
			stolen++
		}
		fill()
	})
	// The slice, plus the block's header and two slabs.
	if stolen != 21 || n > 4 {
		t.Fatalf("stealing Detach of %d tuples: %d of 21 stolen, %v allocations with the block that replaces it, want <= 4", len(src), stolen, n)
	}
}

// TestJoinedLayout pins what a result row costs: a Joined is 48 bytes with
// one pointer, its block, and the block that replaces a stolen emission
// costs at most 48 + 8·(4·w + payload) bytes a row, plus the size ladder's
// 1/blockSteps rounding — 168 for a 3-way result with one value a part,
// where a Joined of three slabs (a parts and a payload slice beside the
// block) cost 224.
func TestJoinedLayout(t *testing.T) {
	if size := unsafe.Sizeof(Joined{}); size != 48 {
		t.Fatalf("Joined is %d bytes, want 48", size)
	}
	typ := reflect.TypeOf(Joined{})
	ptrs := 0
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer:
			ptrs++
		case reflect.Uint64, reflect.Int64, reflect.Float64, reflect.Int32:
		default:
			t.Fatalf("Joined.%s is a %s", f.Name, f.Type)
		}
	}
	if ptrs != 1 {
		t.Fatalf("Joined has %d pointer fields, want 1", ptrs)
	}

	const w, rows, rounds = 3, 1024, 8
	sch := NewJoinSchema([]string{"A", "B", "C"})
	src := make([]*Joined, rows)
	fill := func() {
		blk := sch.AcquireBlock(rows, rows*w)
		for i := range src {
			src[i] = blk.Row()
			for s := 0; s < w; s++ {
				blk.AddPart(src[i], s, uint64(i), 1, 1, 1, 1)[0] = 1
			}
		}
	}
	fill()
	var before, after runtime.MemStats
	var bytes uint64
	for round := 0; round < rounds; round++ {
		if out := Detach(src); out[0] != src[0] {
			t.Fatal("a full block's emission was copied, not stolen")
		}
		runtime.ReadMemStats(&before)
		fill()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	perRow := float64(bytes) / (rounds * rows)
	if limit := (48 + 8*(4*w+w)) * (1 + 1.0/blockSteps); perRow > limit {
		t.Fatalf("the block replacing a stolen emission costs %.1f bytes a row, want <= %.1f", perRow, limit)
	}
}

// TestWindowInsertExpireAllocs: once a window has reached its steady size,
// inserting a batch and expiring as many rows touches only the ring and the
// bucket table — no allocation, whatever the keys.
func TestWindowInsertExpireAllocs(t *testing.T) {
	f := newWindowFeed(20, 4800, 4096)
	w := steadyWindow(f)
	before := w.Len()
	if n := testing.AllocsPerRun(500, func() { w.InsertRows(f.next()) }); n != 0 {
		t.Fatalf("steady-state InsertRows+expire made %v allocations per batch, want 0", n)
	}
	if d := w.Len() - before; d < -20 || d > 20 {
		t.Fatalf("window went from %d to %d rows: not a steady state", before, w.Len())
	}
}

// TestWindowProbeGroupAllocs: a group probe's only scratch is the cursor
// array inside Matches, which stops growing at the largest group it has
// seen; after that neither a group nor the one-key probe built on it
// allocates.
func TestWindowProbeGroupAllocs(t *testing.T) {
	f := newWindowFeed(20, 4800, 4096)
	w := steadyWindow(f)
	var m Matches
	keys := make([]int64, 64)
	counts := make([]int32, len(keys))
	round, matched := int64(0), 0
	step := func() {
		m.Reset()
		for i := range keys {
			keys[i] = (round*64 + int64(i)) % f.keys
		}
		round++
		matched += w.AppendGroupMatches(keys, counts, &m)
		matched += w.AppendGroupMatches(keys[:1], counts, &m)
		matched += w.AppendMatches(keys[63], &m)
	}
	for i := 0; i < 64; i++ {
		step() // every key once: Matches reaches its largest size
	}
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Fatalf("steady-state group probe made %v allocations per round, want 0", n)
	}
	if matched == 0 {
		t.Fatal("no probe matched anything")
	}
}

// TestWindowSnapshotAllocs: Snapshot into a batch already sized for the
// window (what NodeCore.SnapshotOp hands it) grows nothing.
func TestWindowSnapshotAllocs(t *testing.T) {
	w := steadyWindow(newWindowFeed(20, 4800, 4096))
	snap := NewSizedBatch("S", w.Width(), w.Len())
	if n := testing.AllocsPerRun(100, func() { snap.Reset(); w.Snapshot(snap) }); n != 0 {
		t.Fatalf("Snapshot into a pre-sized batch made %v allocations, want 0", n)
	}
	if snap.Len() != w.Len() {
		t.Fatalf("snapshot has %d rows, window %d", snap.Len(), w.Len())
	}
}
