package stream

import (
	"math/rand"
	"reflect"
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

// TestBlockRowsEqualSetPartChain: a row built in blocks — seeded, then cloned
// once per stage into the next stage's block, or rebuilt part by part the way
// a wire decoder does — equals the Acquire+SetPart chain over the same parts
// in the same order, field for field, over random slot orders and payload
// widths 0–4. And rows of one block share slabs but not segments: writing
// through one row's Part views never reaches a neighbour.
func TestBlockRowsEqualSetPartChain(t *testing.T) {
	names := []string{"A", "B", "C", "D", "E", "F"}
	rng := rand.New(rand.NewSource(19))
	type partSpec struct {
		slot    int
		seq     uint64
		ts, arr Time
		key     int64
		vals    []float64
	}
	for iter := 0; iter < 200; iter++ {
		slots := 2 + rng.Intn(len(names)-1)
		sch := NewJoinSchema(names[:slots])
		nRows := 1 + rng.Intn(80)
		specs := make([][]partSpec, nRows)
		want := make([]joinedView, nRows)
		for r := range specs {
			order := rng.Perm(slots)[:1+rng.Intn(slots)]
			ref := sch.Acquire()
			for _, slot := range order {
				p := partSpec{slot: slot, seq: rng.Uint64() >> 8, ts: Time(rng.Intn(100)), arr: Time(rng.Intn(100)), key: int64(r)}
				for v := rng.Intn(5); v > 0; v-- {
					p.vals = append(p.vals, rng.Float64())
				}
				specs[r] = append(specs[r], p)
				ref.SetPart(p.slot, p.seq, p.ts, p.key, p.arr, p.vals)
			}
			want[r] = viewOf(ref, slots)
			ref.Release()
		}
		check := func(how string, rows []*Joined) {
			t.Helper()
			for r, j := range rows {
				if got := viewOf(j, slots); !reflect.DeepEqual(got, want[r]) {
					t.Fatalf("iter %d, %s: row %d = %+v, want %+v", iter, how, r, got, want[r])
				}
			}
			// Scribble over every payload view of every other row, then
			// append through it: the rows in between must not notice.
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
				if got := viewOf(rows[r], slots); !reflect.DeepEqual(got, want[r]) {
					t.Fatalf("iter %d, %s: a write to a neighbour reached row %d", iter, how, r)
				}
			}
			for _, j := range rows {
				j.Release()
			}
		}

		// The pipeline's way: stage s clones every row that has an s-th part
		// into one block sized for exactly those, and releases what it
		// consumed; shorter rows pass through in the block they are in.
		rows := make([]*Joined, nRows)
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
		check("staged", rows)

		// The decoder's way: every row whole, part by part, in one block.
		nvals := 0
		for _, ps := range specs {
			for _, p := range ps {
				nvals += len(p.vals)
			}
		}
		blk := sch.AcquireBlock(nRows, nvals)
		for r, ps := range specs {
			rows[r] = blk.Row()
			for _, p := range ps {
				copy(blk.AddPart(rows[r], p.slot, p.seq, p.ts, p.key, p.arr, len(p.vals)), p.vals)
			}
		}
		check("rebuilt", rows)

		if acq, rec := sch.BlockCounts(); acq != rec {
			t.Fatalf("iter %d: %d blocks acquired, %d recycled", iter, acq, rec)
		}
	}
}
