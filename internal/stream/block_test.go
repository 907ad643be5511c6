package stream

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestBlockClassLadder pins the size ladder: every need gets the smallest
// rung that holds it, rungs rise by at most 1/blockSteps, and the pool index
// is the rung's position.
func TestBlockClassLadder(t *testing.T) {
	prevClass, prevRows := 0, minBlockRows
	for n := 0; n <= 1<<maxBlockBits; n++ {
		class, rows := blockClass(n)
		if rows < n || rows < minBlockRows {
			t.Fatalf("blockClass(%d) = rung of %d rows", n, rows)
		}
		switch {
		case rows == prevRows:
			if class != prevClass {
				t.Fatalf("rung of %d rows has classes %d and %d", rows, prevClass, class)
			}
		case n != prevRows+1:
			t.Fatalf("blockClass(%d) skipped to %d rows with %d still fitting the rung below", n, rows, prevRows)
		case class != prevClass+1 || rows*blockSteps > prevRows*(blockSteps+1):
			t.Fatalf("rung after %d rows (class %d) is %d rows (class %d)", prevRows, prevClass, rows, class)
		}
		prevClass, prevRows = class, rows
	}
	if prevClass != numBlockPools-1 {
		t.Fatalf("top rung is class %d of %d pools", prevClass, numBlockPools)
	}
	if class, rows := blockClass(1<<maxBlockBits + 1); class != unpooledBlocks || rows != 1<<maxBlockBits+1 {
		t.Fatalf("past the ladder: class %d, %d rows", class, rows)
	}
}

// partSpec is one part of a row under test: its slot and raw columns.
type partSpec struct {
	slot    int
	seq     uint64
	ts, arr Time
	key     int64
	vals    []float64
}

// checkRowPaths builds the rows specs describe (specs[r] is row r's parts in
// the order they are added, all with one key) by every path a row takes, and
// holds each to the Acquire+SetPart chain over the same parts, which must
// itself hand back every column bit for bit:
//
//   - staged: seeded, then cloned once per stage into the next stage's block,
//     the way the pipeline builds them;
//   - seeded in bulk: every row's first part, as one batch's tuples, by
//     SeedRows, the way admission does, against Seed over the same tuples
//     bit for bit, at payload widths 0, 1 and 3;
//   - rebuilt: part by part into one block, the way the wire decoder does;
//   - copied and stolen: that block delivered by Detach, once without its
//     last row (a copy) and once whole (a steal), and each then grown by
//     SetPart, which must move the grown row and leave its neighbours be.
//
// And rows of one block share slabs but not segments: writing through one
// row's Part views never reaches a neighbour.
func checkRowPaths(t *testing.T, sch *JoinSchema, specs [][]partSpec) {
	t.Helper()
	slots := sch.Len()
	acq0, rec0 := sch.BlockCounts()
	reference := func(ps []partSpec) joinedView {
		t.Helper()
		ref := sch.Acquire()
		defer ref.Release()
		bySlot := make([]*partSpec, slots)
		for i, p := range ps {
			ref.SetPart(p.slot, p.seq, p.ts, p.key, p.arr, p.vals)
			bySlot[p.slot] = &ps[i]
		}
		var ids []TupleID
		for slot, p := range bySlot {
			if p == nil {
				continue
			}
			ids = append(ids, MakeTupleID(slot, p.seq))
			got, _ := ref.Part(slot)
			if got.Seq != p.seq || got.Ts != p.ts || got.Arrival != p.arr || got.Key != p.key || !slices.Equal(got.Vals, p.vals) {
				t.Fatalf("Acquire+SetPart: part %d = %+v, want %+v", slot, got, *p)
			}
		}
		if got := ref.TupleIDs(nil); !slices.Equal(got, ids) {
			t.Fatalf("Acquire+SetPart: TupleIDs %x, want %x", got, ids)
		}
		return viewOf(ref, slots)
	}
	want := make([]joinedView, len(specs))
	for r, ps := range specs {
		want[r] = reference(ps)
	}
	// check compares rows[i] with row i%len(specs); a delivered set is then
	// grown by SetPart on its first row, where that row has a free slot.
	check := func(how string, rows []*Joined, delivered bool) {
		t.Helper()
		for i, j := range rows {
			if got := viewOf(j, slots); !reflect.DeepEqual(got, want[i%len(specs)]) {
				t.Fatalf("%s: row %d = %+v, want %+v", how, i, got, want[i%len(specs)])
			}
		}
		if delivered && rows[0].Len() < slots {
			free := 0
			for rows[0].Has(free) {
				free++
			}
			p := specs[0][0]
			p.slot, p.seq, p.vals = free, ^p.seq, []float64{0.5, -0.5}
			grown := reference(append(slices.Clone(specs[0]), p))
			rows[0].SetPart(p.slot, p.seq, p.ts, p.key, p.arr, p.vals)
			for i, j := range rows {
				w := want[i%len(specs)]
				if i == 0 {
					w = grown
				}
				if got := viewOf(j, slots); !reflect.DeepEqual(got, w) {
					t.Fatalf("%s: after SetPart on row 0, row %d = %+v, want %+v", how, i, got, w)
				}
			}
		}
		// Scribble over every payload view of every other row, then append
		// through it: the rows in between must not notice.
		for r := 0; r < len(rows); r += 2 {
			for s := 0; s < slots; s++ {
				p, _ := rows[r].Part(s)
				for i := range p.Vals {
					p.Vals[i] = -1
				}
				_ = append(p.Vals, -2, -2, -2)
			}
		}
		for r := 1; r < len(rows); r += 2 {
			if got := viewOf(rows[r], slots); !reflect.DeepEqual(got, want[r%len(specs)]) {
				t.Fatalf("%s: a write to a neighbour reached row %d", how, r)
			}
		}
		for _, j := range rows {
			j.Release()
		}
	}

	// The pipeline's way: stage s clones every row that has an s-th part
	// into one block sized for exactly those, and releases what it consumed;
	// shorter rows pass through in the block they are in.
	rows := make([]*Joined, len(specs))
	for s := 0; s < slots; s++ {
		n, nvals := 0, 0
		for r, ps := range specs {
			if len(ps) > s {
				n++
				nvals += len(ps[s].vals)
				if s > 0 {
					nvals += rows[r].NumVals()
				}
			}
		}
		if n == 0 {
			break
		}
		blk := sch.AcquireBlock(n, nvals)
		for r, ps := range specs {
			if len(ps) <= s {
				continue
			}
			p := ps[s]
			if s == 0 {
				rows[r] = blk.Seed(p.slot, p.seq, p.ts, p.key, p.arr, p.vals)
				continue
			}
			prev := rows[r]
			rows[r] = blk.CloneWith(prev, p.slot, p.seq, p.ts, p.key, p.arr, p.vals)
			prev.Release()
		}
	}
	check("staged", rows, false)

	// Admission's way: the first parts as one batch of the first row's
	// stream, payloads cut or zero-padded to the batch's width.
	slot := specs[0][0].slot
	for _, w := range []int{0, 1, 3} {
		src := NewSizedBatch(sch.Stream(slot), w, len(specs))
		for _, ps := range specs {
			p := ps[0]
			copy(src.AppendRow(p.seq, p.ts, p.key, p.arr), p.vals)
		}
		one := sch.AcquireBlock(len(specs), len(specs)*w)
		bulk := sch.AcquireBlock(len(specs), len(specs)*w)
		seeded := bulk.SeedRows(nil, slot, src)
		refs := make([]*Joined, len(seeded))
		for i, j := range seeded {
			refs[i] = one.Seed(slot, src.Seq[i], src.Ts[i], src.Key[i], src.Arr[i], src.ValsAt(i))
			got, want := *j, *refs[i]
			got.blk, want.blk = nil, nil
			if got != want || !sameBits(j.part(slot), refs[i].part(slot)) || !sameBits(j.vals(slot), refs[i].vals(slot)) ||
				!reflect.DeepEqual(viewOf(j, slots), viewOf(refs[i], slots)) {
				t.Fatalf("width %d: SeedRows row %d = %+v %+v, Seed row %+v %+v", w, i, got, viewOf(j, slots), want, viewOf(refs[i], slots))
			}
		}
		for i := range seeded {
			seeded[i].Release()
			refs[i].Release()
		}
	}

	// The decoder's way: every row whole, part by part, in one block —
	// repeated to at least half the smallest block, so that Detach steals it.
	rows = make([]*Joined, max(len(specs), minBlockRows/2))
	nvals := 0
	for i := range rows {
		for _, p := range specs[i%len(specs)] {
			nvals += len(p.vals)
		}
	}
	blk := sch.AcquireBlock(len(rows), nvals)
	for i := range rows {
		rows[i] = blk.Row()
		for _, p := range specs[i%len(specs)] {
			copy(blk.AddPart(rows[i], p.slot, p.seq, p.ts, p.key, p.arr, len(p.vals)), p.vals)
		}
	}
	copied := Detach(rows[:len(rows)-1])
	stolen := Detach(rows)
	if copied[0] == rows[0] || stolen[0] != rows[0] {
		t.Fatalf("Detach of %d of %d rows stole %v, of all of them %v", len(copied), len(rows), copied[0] == rows[0], stolen[0] == rows[0])
	}
	check("rebuilt and copied", copied, true)
	check("rebuilt and stolen", stolen, true)

	if acq, rec := sch.BlockCounts(); acq-acq0 != rec-rec0+1 {
		t.Fatalf("%d blocks acquired, %d recycled, one stolen", acq-acq0, rec-rec0)
	}
}

// sameBits reports whether a and b hold the same words, bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// specialSeqs are sequence numbers whose bits, stored in a float64 slab,
// read as a signalling NaN, a quiet NaN and an all-ones NaN.
var specialSeqs = []uint64{0x7FF0000000000001, 0xFFF8000000000000, math.MaxUint64}

// TestBlockRowsEqualSetPartChain runs checkRowPaths over random slot orders,
// full-width keys and sequence numbers (NaN-shaped ones included) and
// payload widths 0–4, with one part of the widest payload the wire carries
// now and then.
func TestBlockRowsEqualSetPartChain(t *testing.T) {
	names := []string{"A", "B", "C", "D", "E", "F"}
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 200; iter++ {
		slots := 2 + rng.Intn(len(names)-1)
		specs := make([][]partSpec, 1+rng.Intn(80))
		for r := range specs {
			key := int64(rng.Uint64())
			for _, slot := range rng.Perm(slots)[:1+rng.Intn(slots)] {
				p := partSpec{slot: slot, seq: rng.Uint64(), ts: Time(rng.Intn(100)), arr: Time(rng.Intn(100)), key: key}
				if rng.Intn(4) == 0 {
					p.seq = specialSeqs[rng.Intn(len(specialSeqs))]
				}
				for v := rng.Intn(5); v > 0; v-- {
					p.vals = append(p.vals, rng.Float64())
				}
				specs[r] = append(specs[r], p)
			}
		}
		if iter%25 == 0 {
			wide := &specs[rng.Intn(len(specs))][0]
			wide.vals = make([]float64, math.MaxUint16)
			for i := range wide.vals {
				wide.vals[i] = float64(i)
			}
		}
		t.Run(fmt.Sprint(iter), func(t *testing.T) { checkRowPaths(t, NewJoinSchema(names[:slots]), specs) })
	}
}

// FuzzBlockRowRoundTrip runs checkRowPaths — bulk seeding included — over
// rows drawn from the input: a schema of up to eight streams, then per row a
// key, a slot order, and per part a sequence number and a payload width.
func FuzzBlockRowRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 20, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2})
	f.Add([]byte{2, 40, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 1, 1, 0x01, 0, 0, 0, 0, 0, 0xf0, 0x7f, 9, 9, 5})
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	f.Fuzz(func(t *testing.T, raw []byte) {
		next := func() byte {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return b
		}
		u64 := func() uint64 {
			var u uint64
			for i := 0; i < 8; i++ {
				u |= uint64(next()) << (8 * i)
			}
			return u
		}
		slots := 1 + int(next())%len(names)
		specs := make([][]partSpec, 1+int(next())%64)
		for r := range specs {
			key := int64(u64())
			order := make([]int, slots)
			for i := range order {
				j := int(next()) % (i + 1)
				order[i], order[j] = order[j], i
			}
			for _, slot := range order[:1+int(next())%slots] {
				p := partSpec{slot: slot, seq: u64(), ts: Time(next()), arr: Time(next()), key: key}
				for v := int(next()); v > 0; v-- {
					p.vals = append(p.vals, float64(v))
				}
				specs[r] = append(specs[r], p)
			}
		}
		checkRowPaths(t, NewJoinSchema(names[:slots]), specs)
	})
}
