package stream

import (
	"fmt"
	"math/rand"
	"testing"
)

// windowFeed refills one batch in place with the next batchRows tuples of a
// timestamp-ordered stream: uniform keys over a fixed domain, one payload
// value, and a fixed time step, so a window of span 1 settles at
// 1/step tuples and every insert evicts as many as it adds.
type windowFeed struct {
	rng  *rand.Rand
	b    *Batch
	rows []int32
	keys int64
	step float64
	seq  uint64
}

func newWindowFeed(batchRows, windowRows int, keys int64) *windowFeed {
	f := &windowFeed{
		rng:  rand.New(rand.NewSource(1)),
		b:    NewSizedBatch("S", 1, batchRows),
		rows: make([]int32, batchRows),
		keys: keys,
		step: 1 / float64(windowRows),
	}
	for i := range f.rows {
		f.rows[i] = int32(i)
	}
	return f
}

func (f *windowFeed) next() (*Batch, []int32) {
	f.b.Reset()
	for range f.rows {
		ts := Time(float64(f.seq) * f.step)
		f.b.AppendRow(f.seq, ts, f.rng.Int63n(f.keys), ts)[0] = float64(f.seq)
		f.seq++
	}
	return f.b, f.rows
}

// steadyWindow returns a span-1 window that has been fed three spans' worth
// of f — full, past its last grow, and with its ring wrapped — the state a
// join operator's shard is in for the whole of a run.
func steadyWindow(f *windowFeed) *Window {
	w := NewWindow(1)
	for f.seq < uint64(3/f.step) {
		w.InsertRows(f.next())
	}
	return w
}

// The three window benchmarks mirror engine_ingest's shape in
// bench/rldperf: about 4800 buffered rows over a few thousand keys, 20-tuple
// batches. The -run Allocs tests hold the same paths at exactly zero
// allocations; the timings that count are the stream.* rows of the rldperf
// trace.

func BenchmarkWindowInsertExpire(b *testing.B) {
	f := newWindowFeed(20, 4800, 4096)
	w := steadyWindow(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.InsertRows(f.next())
	}
}

// BenchmarkWindowProbe probes 20 keys per op, as groups of 1 (what a
// 20-tuple batch over 16 shards mostly gives), 6 (a 100-tuple batch over 16
// shards) and 20 (a 20-tuple batch on a one-worker node's single window), so
// ns/op is comparable across the sizes. The window fits in L2 here: the
// sizes differ by call overhead only, not by the misses grouping overlaps.
func BenchmarkWindowProbe(b *testing.B) {
	for _, group := range []int{1, 6, 20} {
		b.Run(fmt.Sprintf("group=%d", group), func(b *testing.B) {
			f := newWindowFeed(20, 4800, 4096)
			w := steadyWindow(f)
			var m Matches
			keys := make([]int64, 20)
			counts := make([]int32, group)
			matched := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				for k := range keys {
					keys[k] = (int64(i)*20 + int64(k)) % f.keys
				}
				for lo := 0; lo < len(keys); lo += group {
					matched += w.AppendGroupMatches(keys[lo:min(lo+group, len(keys))], counts, &m)
				}
			}
			b.ReportMetric(float64(matched)/float64(b.N)/20, "matches/probe")
		})
	}
}

func BenchmarkWindowSnapshot(b *testing.B) {
	w := steadyWindow(newWindowFeed(20, 4800, 4096))
	snap := NewSizedBatch("S", w.Width(), w.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Reset()
		w.Snapshot(snap)
	}
}
