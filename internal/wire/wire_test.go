package wire

import (
	"errors"
	"reflect"
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
