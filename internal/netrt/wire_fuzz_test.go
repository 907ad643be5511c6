package netrt

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"rld/internal/stream"
	"rld/internal/wire"
)

// partialFixtures are the partials wire_test.go round-trips: one with a gap
// in its slots and uneven payloads, then a run of singletons.
func partialFixtures(sch *stream.JoinSchema) []*stream.Joined {
	p := sch.Acquire()
	p.SetPart(0, 1, 10, 7, 9, []float64{1, 2})
	p.SetPart(2, 5, 12, 7, 8, []float64{3})
	ps := []*stream.Joined{p}
	for i := int64(0); i < 10; i++ {
		j := sch.Acquire()
		j.SetPart(1, uint64(i), stream.Time(i), i, stream.Time(i), []float64{1})
		ps = append(ps, j)
	}
	return ps
}

// FuzzDecodePartials: decodePartials sizes a block from counts it reads off
// the wire, so whatever the bytes are it must end in a typed ErrBadFrame with
// nothing built, or in partials that encode back to exactly the bytes
// consumed — never a panic, never an allocation out of proportion to the
// input — and every block it took must be recyclable afterwards.
func FuzzDecodePartials(f *testing.F) {
	sch := stream.NewJoinSchema([]string{"S1", "S2", "S3"})
	fix := partialFixtures(sch)
	for _, ps := range [][]*stream.Joined{fix, fix[:1], fix[1:], nil} {
		var e wire.Enc
		encodePartials(&e, sch, ps)
		f.Add(e.B)
		f.Add(e.B[:len(e.B)/2])
	}
	var huge wire.Enc
	huge.U32(1 << 30)
	f.Add(huge.B)
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}) // one partial, one part, no bytes for it

	f.Fuzz(func(t *testing.T, raw []byte) {
		acq0, rec0 := sch.BlockCounts()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := wire.Dec{B: raw}
		out, err := decodePartials(&d, sch, nil)
		runtime.ReadMemStats(&after)
		// A row of this schema is 200 bytes of block for at least 8 bytes of
		// input, a payload value 8 for 8; the rest is the smallest block
		// and the error text.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(48*len(raw)+32<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			if len(out) != 0 {
				t.Fatalf("a failed decode returned %d partials", len(out))
			}
		} else {
			var e wire.Enc
			encodePartials(&e, sch, out)
			if consumed := raw[:len(raw)-len(d.B)]; !bytes.Equal(e.B, consumed) {
				t.Fatalf("decoded partials encode to %x, were decoded from %x", e.B, consumed)
			}
			for _, j := range out {
				j.Release()
			}
		}
		if acq, rec := sch.BlockCounts(); acq-acq0 != rec-rec0 {
			t.Fatalf("%d blocks acquired, %d recycled", acq-acq0, rec-rec0)
		}
	})
}
