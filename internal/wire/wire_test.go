package wire

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"rld/internal/stream"
)

// testBatches are the shapes the codec must carry: no rows, no payload
// column, one and several payload values per row, and negative keys.
func testBatches() map[string]*stream.Batch {
	fill := func(width, n int) *stream.Batch {
		b := stream.NewSizedBatch("S1", width, n)
		for i := 0; i < n; i++ {
			// Keys -9, -2, 5, …: both signs.
			row := b.AppendRow(uint64(100+i), stream.Time(i)+0.25, int64(i*7-9), stream.Time(i)+0.5)
			for j := range row {
				row[j] = float64(i*10+j) - 0.125
			}
		}
		return b
	}
	return map[string]*stream.Batch{
		"empty":   fill(3, 0),
		"width 0": fill(0, 5),
		"width 1": fill(1, 5),
		"width 4": fill(4, 5),
	}
}

func TestBatchRoundTrip(t *testing.T) {
	for name, want := range testBatches() {
		var e Enc
		EncodeBatch(&e, want)
		d := Dec{B: e.B}
		got, err := DecodeBatch(&d)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(d.B) != 0 {
			t.Errorf("%s: %d bytes left after decode", name, len(d.B))
		}
		if got.Stream != want.Stream || got.Width() != want.Width() || got.Len() != want.Len() {
			t.Fatalf("%s: header %q/%d/%d, want %q/%d/%d", name,
				got.Stream, got.Width(), got.Len(), want.Stream, want.Width(), want.Len())
		}
		if !reflect.DeepEqual(got.Seq, want.Seq) || !reflect.DeepEqual(got.Ts, want.Ts) ||
			!reflect.DeepEqual(got.Key, want.Key) || !reflect.DeepEqual(got.Arr, want.Arr) ||
			!reflect.DeepEqual(got.Vals, want.Vals) {
			t.Errorf("%s: columns differ:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestBatchTruncatedPrefixes feeds every proper prefix of a valid encoding
// to DecodeBatch: each must be rejected as corrupt — never a panic, and
// never a batch with fewer rows than were encoded.
func TestBatchTruncatedPrefixes(t *testing.T) {
	for name, b := range testBatches() {
		var e Enc
		EncodeBatch(&e, b)
		for cut := 0; cut < len(e.B); cut++ {
			got, err := DecodeBatch(&Dec{B: e.B[:cut]})
			if !errors.Is(err, ErrCorrupt) || got != nil {
				t.Fatalf("%s: %d of %d bytes decoded to (%v, %v), want ErrCorrupt", name, cut, len(e.B), got, err)
			}
		}
	}
}

// FuzzDecodeBatch: DecodeBatch sizes five columns from a row count and a
// width it reads off the wire, so whatever the bytes are it must end in
// ErrCorrupt with no batch, or in a batch that encodes back to exactly the
// bytes consumed — never a panic, and never an allocation the input did not
// pay for (a row costs at least 32 bytes on the wire, a payload value 8).
func FuzzDecodeBatch(f *testing.F) {
	for _, b := range testBatches() {
		var e Enc
		EncodeBatch(&e, b)
		f.Add(e.B)
		f.Add(e.B[:len(e.B)/2])
	}
	var huge Enc // a header claiming 2^30 rows and nothing behind it
	huge.Str("S1")
	huge.U16(1)
	huge.U32(1 << 30)
	f.Add(huge.B)

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := Dec{B: raw}
		b, err := DecodeBatch(&d)
		runtime.ReadMemStats(&after)
		// The columns and the stream name are each at most the input's
		// size; the rest is the batch header, the error text, and whatever
		// the fuzz worker itself allocated meanwhile (TotalAlloc is process-wide).
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(raw)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || b != nil {
				t.Fatalf("decoded to (%v, %v), want (nil, ErrCorrupt)", b, err)
			}
			return
		}
		var e Enc
		EncodeBatch(&e, b)
		if consumed := raw[:len(raw)-len(d.B)]; !bytes.Equal(e.B, consumed) {
			t.Fatalf("decoded batch encodes to %x, was decoded from %x", e.B, consumed)
		}
	})
}
