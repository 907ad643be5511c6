package stream

import (
	"reflect"
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
