package stream

import (
	"reflect"
	"strings"
	"testing"
)

// joinedView is everything a consumer can read off a Joined, captured as
// plain values so it can be compared after the tuple itself is gone.
type joinedView struct {
	Ts, Arrival Time
	Key         int64
	Has         []bool
	Parts       []Tuple
	Val0        []float64
	IDs         []TupleID
	Streams     []string
}

func viewOf(j *Joined, slots int) joinedView {
	v := joinedView{Ts: j.Ts, Arrival: j.Arrival, Key: j.Key(), IDs: j.TupleIDs(nil), Streams: j.Streams()}
	for s := 0; s < slots; s++ {
		v.Has = append(v.Has, j.Has(s))
		p, _ := j.Part(s)
		p.Vals = append([]float64(nil), p.Vals...)
		v.Parts = append(v.Parts, p)
		x, _ := j.Val(s, 0)
		v.Val0 = append(v.Val0, x)
	}
	return v
}

func TestDetachEmpty(t *testing.T) {
	if got := Detach(nil); got != nil {
		t.Fatalf("Detach(nil) = %v", got)
	}
	if got := Detach([]*Joined{}); len(got) != 0 {
		t.Fatalf("Detach(empty) = %v", got)
	}
}

func TestDetachOutlivesRelease(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "B", "C"})
	// Different populated slots and payload widths per tuple, including one
	// with no payload at all.
	src := []*Joined{sch.Acquire(), sch.Acquire(), sch.Acquire()}
	src[0].SetPart(0, 1, 10, 7, 100, []float64{1.5})
	src[0].SetPart(1, 2, 12, 7, 90, []float64{2.5, 3.5})
	src[0].SetPart(2, 3, 11, 7, 95, []float64{4.5})
	src[1].SetPart(2, 4, 20, 8, 200, []float64{5.5, 6.5, 7.5})
	src[2].SetPart(1, 5, 30, 9, 300, nil)

	const slots = 3
	want := make([]joinedView, len(src))
	for i, j := range src {
		want[i] = viewOf(j, slots)
	}
	got := Detach(src)
	if len(got) != len(src) {
		t.Fatalf("Detach returned %d tuples, want %d", len(got), len(src))
	}
	check := func(when string) {
		t.Helper()
		for i, j := range got {
			if v := viewOf(j, slots); !reflect.DeepEqual(v, want[i]) {
				t.Fatalf("%s: copy %d = %+v, want %+v", when, i, v, want[i])
			}
		}
	}
	check("before release")
	for i, j := range got {
		if j == src[i] {
			t.Fatalf("copy %d is the original", i)
		}
	}

	// Recycle the originals and overwrite every slot of whatever the pool
	// hands back: the copies must not have shared a byte with them.
	for _, j := range src {
		j.Release()
	}
	for i := 0; i < 2*len(src); i++ {
		j := sch.Acquire()
		for s := 0; s < slots; s++ {
			j.SetPart(s, 999, -1, -1, -1, []float64{-1, -1, -1, -1})
		}
		defer j.Release()
	}
	check("after reuse")

	// Copies of one call share slabs but not segments: growing one copy's
	// payload must leave its neighbours alone.
	got[0].SetPart(1, 2, 12, 7, 90, []float64{8, 8, 8, 8, 8, 8})
	for i := 1; i < len(got); i++ {
		if v := viewOf(got[i], slots); !reflect.DeepEqual(v, want[i]) {
			t.Fatalf("write to copy 0 reached copy %d: %+v", i, v)
		}
	}
}

// TestReleaseOnDeliveredTupleIsNoOp: rld.Joined is this package's Joined, so
// a subscriber can call Release on a tuple it was delivered. That must not
// put the tuple into any pool: if it did, the pipeline's next Acquire would
// hand the subscriber's tuple to a stage, which overwrites it.
func TestReleaseOnDeliveredTupleIsNoOp(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "B"})
	src := sch.Acquire()
	src.SetPart(0, 1, 10, 7, 100, []float64{1.5})
	held := Detach([]*Joined{src})[0]
	src.Release()
	want := viewOf(held, 2)

	held.Release()
	for i := 0; i < 8; i++ {
		j := sch.Acquire()
		if j == held {
			t.Fatal("Acquire handed out a tuple a subscriber holds")
		}
		j.SetPart(0, 999, -1, -1, -1, []float64{-1})
		defer j.Release()
	}
	if got := viewOf(held, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("held tuple changed after its Release: %+v, want %+v", got, want)
	}
}

// TestReleaseOnStolenTupleIsNoOp is the same promise for a stolen emission:
// the subscriber's Release must neither recycle the block nor count down
// towards recycling it.
func TestReleaseOnStolenTupleIsNoOp(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "B"})
	blk := sch.AcquireBlock(40, 40)
	var src []*Joined
	for i := 0; i < 40; i++ {
		src = append(src, blk.Seed(0, uint64(i), Time(i), int64(i), Time(i), []float64{float64(i)}))
	}
	held := Detach(src)
	if held[0] != src[0] {
		t.Fatal("a full block's emission was copied, not stolen")
	}
	want := make([]joinedView, len(held))
	for i, j := range held {
		want[i] = viewOf(j, 2)
	}
	for _, j := range src { // the sink
		j.Release()
	}
	for _, j := range held { // the subscriber
		j.Release()
	}
	if _, rec := sch.BlockCounts(); rec != 0 {
		t.Fatalf("a stolen block was recycled %d times", rec)
	}
	// Whatever the pipeline builds next must land elsewhere.
	for round := 0; round < 4; round++ {
		b := sch.AcquireBlock(40, 40)
		if b == blk {
			t.Fatal("AcquireBlock handed out a stolen block")
		}
		for i := 0; i < 40; i++ {
			b.Seed(1, 999, -1, -1, -1, []float64{-1}).Release()
		}
	}
	for i, j := range held {
		if got := viewOf(j, 2); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("stolen tuple %d changed: %+v, want %+v", i, got, want[i])
		}
	}
}

// TestDetachStealOrCopy walks the boundary of the steal rule: k live rows of
// a block of capacity c are stolen iff they are the block's whole live set and
// 2k >= c. A copied emission leaves the block to be recycled by the sink's
// releases; a stolen one takes it out of circulation.
func TestDetachStealOrCopy(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "B"})
	c := len(sch.AcquireBlock(1, 0).structs)
	for _, tc := range []struct {
		name            string
		filled, emitted int
		foreign         bool // one Acquired singleton rides along
		steal           bool
	}{
		{"full", c, c, false, true},
		{"exactly half", c / 2, c / 2, false, true},
		{"one short of half", c/2 - 1, c/2 - 1, false, false},
		{"one row", 1, 1, false, false},
		{"half the live rows", c, c / 2, false, false},
		{"all but one live row", c, c - 1, false, false},
		{"whole block plus a foreign row", c, c, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acq0, rec0 := sch.BlockCounts()
			blk := sch.AcquireBlock(tc.filled, tc.filled)
			if len(blk.structs) != c {
				t.Fatalf("block of %d rows has capacity %d, want %d", tc.filled, len(blk.structs), c)
			}
			var rows []*Joined
			for i := 0; i < tc.filled; i++ {
				rows = append(rows, blk.Seed(0, uint64(i), 1, 1, 1, []float64{float64(i)}))
			}
			src := rows[:tc.emitted:tc.emitted]
			if tc.foreign {
				f := sch.Acquire()
				f.SetPart(1, 77, 1, 1, 1, nil)
				src = append(src, f)
				defer f.Release()
			}
			got := Detach(src)
			if len(got) != len(src) {
				t.Fatalf("Detach returned %d tuples for %d", len(got), len(src))
			}
			for i := range got {
				if stolen := got[i] == src[i]; stolen != tc.steal {
					t.Fatalf("tuple %d: stolen = %v, want %v", i, stolen, tc.steal)
				}
				if !reflect.DeepEqual(viewOf(got[i], 2), viewOf(src[i], 2)) {
					t.Fatalf("tuple %d differs from its source", i)
				}
			}
			for _, j := range rows {
				j.Release()
			}
			acq, rec := sch.BlockCounts()
			if acq-acq0 != 1 {
				t.Fatalf("%d blocks acquired, want 1", acq-acq0)
			}
			switch {
			case tc.steal && rec != rec0:
				t.Fatal("a stolen block was recycled")
			case !tc.steal && rec-rec0 != 1:
				t.Fatalf("copied emission: block recycled %d times, want 1", rec-rec0)
			}
		})
	}
}

// TestSetPartContract: SetPart grows a tuple a subscriber was delivered — a
// stolen one too, whose block neighbours must stay as they were, and a
// copied one alone in its block, which grows where it is — and refuses, with
// a panic that says why, a row of a block still in the pipeline.
func TestSetPartContract(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "B"})
	blk := sch.AcquireBlock(40, 40)
	var src []*Joined
	for i := 0; i < 40; i++ {
		src = append(src, blk.Seed(0, uint64(i), Time(i), 7, Time(i), []float64{float64(i)}))
	}
	held := Detach(src)
	if held[0] != src[0] {
		t.Fatal("a full block's emission was copied, not stolen")
	}
	want := make([]joinedView, len(held))
	for i, j := range held {
		want[i] = viewOf(j, 2)
	}
	before, _ := held[11].Part(0)
	held[10].SetPart(1, 99, 50, 7, 5, []float64{8, 8, 8})
	for i, j := range held {
		got := viewOf(j, 2)
		if i == 10 {
			if p, ok := j.Part(1); !ok || p.Seq != 99 || len(p.Vals) != 3 || got.Parts[0].Seq != 10 || got.Ts != 50 || got.Arrival != 5 {
				t.Fatalf("grown tuple = %+v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("growing tuple 10 changed tuple %d: %+v, want %+v", i, got, want[i])
		}
	}
	if before.Vals[0] != 11 {
		t.Fatalf("a neighbour's payload view reads %v after the grow", before.Vals)
	}

	one := sch.Acquire()
	one.SetPart(0, 1, 1, 7, 1, []float64{1})
	alone := Detach([]*Joined{one})[0]
	one.Release()
	owner := alone.blk
	alone.SetPart(1, 2, 2, 7, 2, []float64{2, 2})
	if alone.blk != owner || alone.NumVals() != 3 {
		t.Fatalf("a copy alone in its block moved (%v) or lost values (%d)", alone.blk != owner, alone.NumVals())
	}

	live := sch.AcquireBlock(1, 1).Seed(0, 1, 1, 7, 1, []float64{1})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "SetPart on a row of a live pipeline block") {
			t.Fatalf("SetPart on a pipeline row: recovered %q", msg)
		}
		live.Release()
	}()
	live.SetPart(1, 2, 2, 7, 2, nil)
	t.Fatal("SetPart on a pipeline row returned")
}
