package runtime

import (
	"rld/internal/gen"
	"rld/internal/stream"
)

// Feed supplies batches of real tuples to a session, ordered by each
// batch's leading application timestamp. Tuples within a batch are in
// timestamp order, but batches of different streams span overlapping time
// ranges, so individual tuples across streams may interleave slightly out
// of order (bounded by one batch's span per stream). Next returns nil when
// the feed is exhausted.
type Feed interface {
	Next() *stream.Batch
}

// BatchSliceFeed replays a pre-built batch sequence (tests, recorded runs).
type BatchSliceFeed struct {
	Batches []*stream.Batch
	i       int
}

// Next implements Feed.
func (f *BatchSliceFeed) Next() *stream.Batch {
	if f.i >= len(f.Batches) {
		return nil
	}
	b := f.Batches[f.i]
	f.i++
	return b
}

// SourceFeed merges several generator sources into a batch stream: each
// source accumulates rusters of batchSize tuples, and Next always hands out
// the pending batch with the earliest leading timestamp, so the interleaving
// across streams matches what the arrival processes would produce live.
//
// Batches are built columnar (gen.Source.AppendNext) on pooled storage and
// recycled: a batch returned by Next is valid only until the following Next
// call. Replay consumers satisfy this trivially — Ingest copies everything
// it retains before returning.
type SourceFeed struct {
	batchSize int
	horizon   float64
	pending   []*stream.Batch // pending[i] is the next batch of source i
	srcs      []*gen.Source
	lastOut   *stream.Batch // recycled at the next Next call
}

// NewSourceFeed builds a SourceFeed over srcs that stops at the application
// -time horizon in seconds.
func NewSourceFeed(srcs []*gen.Source, batchSize int, horizon float64) *SourceFeed {
	if batchSize < 1 {
		batchSize = 1
	}
	f := &SourceFeed{batchSize: batchSize, horizon: horizon, srcs: srcs, pending: make([]*stream.Batch, len(srcs))}
	for i := range srcs {
		f.pending[i] = f.fill(i)
	}
	return f
}

// fill builds the next batch of source i, or nil when the source passed the
// horizon.
func (f *SourceFeed) fill(i int) *stream.Batch {
	src := f.srcs[i]
	var b *stream.Batch
	for {
		if src.Now() > f.horizon {
			break
		}
		if b == nil {
			b = stream.AcquireBatch(src.Name, src.Arity())
		}
		if !src.AppendNext(b) {
			break
		}
		if float64(b.LastTs()) > f.horizon {
			// The generated tuple crossed the horizon; drop it (the
			// source has advanced past it, matching the boxed path).
			b.Truncate(b.Len() - 1)
			break
		}
		if b.Len() >= f.batchSize {
			return b
		}
	}
	if b != nil {
		if b.Len() > 0 {
			return b
		}
		b.Release()
	}
	return nil
}

// Next implements Feed: the pending batch whose first tuple is earliest.
// The previously returned batch is recycled by this call.
func (f *SourceFeed) Next() *stream.Batch {
	if f.lastOut != nil {
		f.lastOut.Release()
		f.lastOut = nil
	}
	best := -1
	for i, b := range f.pending {
		if b == nil {
			continue
		}
		if best == -1 || b.FirstTs() < f.pending[best].FirstTs() {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	b := f.pending[best]
	f.pending[best] = f.fill(best)
	f.lastOut = b
	return b
}

var (
	_ Feed = (*BatchSliceFeed)(nil)
	_ Feed = (*SourceFeed)(nil)
)
