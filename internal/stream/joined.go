package stream

import (
	"math/bits"
	"sync"
)

// maxJoinStreams bounds the number of streams a JoinSchema can index; the
// presence mask is a uint64.
const maxJoinStreams = 64

// JoinSchema precomputes the stream-name → slot mapping for one query's join
// results, so a Joined can store its parts in a small slice instead of a
// per-result map. It also owns the pools join results are recycled through:
// blocks for the pipeline, singletons for Acquire.
type JoinSchema struct {
	streams []string
	index   map[string]int
	pool    sync.Pool // singleton *Joined, see Acquire
	blocks  blockPools

	// Every Joined points at a Block; these two stand in for the rows that
	// have no real one. singles owns what Acquire hands out (Release puts
	// the tuple back in pool); loose, born detached, owns Detach's copies
	// (Release does nothing).
	singles, loose Block
}

// NewJoinSchema builds the slot mapping for the given streams (at most 64).
// Slot i corresponds to streams[i].
func NewJoinSchema(streams []string) *JoinSchema {
	if len(streams) > maxJoinStreams {
		panic("stream: join schema over 64 streams")
	}
	cp := append([]string(nil), streams...)
	idx := make(map[string]int, len(cp))
	for i, s := range cp {
		idx[s] = i
	}
	sch := &JoinSchema{streams: cp, index: idx}
	sch.singles.schema = sch
	sch.loose.schema, sch.loose.detached = sch, true
	sch.pool.New = func() any {
		return &Joined{blk: &sch.singles, parts: make([]part, len(cp))}
	}
	return sch
}

// Len returns the number of streams in the schema.
func (s *JoinSchema) Len() int { return len(s.streams) }

// Slot returns the slot of the named stream, or -1 if absent.
func (s *JoinSchema) Slot(streamName string) int {
	if i, ok := s.index[streamName]; ok {
		return i
	}
	return -1
}

// Stream returns the stream name at the given slot.
func (s *JoinSchema) Stream(slot int) string { return s.streams[slot] }

// Acquire returns an empty pooled Joined bound to this schema and to no
// block, filled through SetPart — how tests and the layer benchmark seed
// partials; the pipeline itself builds rows in blocks (AcquireBlock). Release
// it exactly once when done; what must outlive that leaves through Detach.
func (s *JoinSchema) Acquire() *Joined {
	return s.pool.Get().(*Joined)
}

// part is one constituent tuple of a join result. Its payload lives at
// [voff, voff+vlen) in the owning Joined's vals buffer — offsets rather than
// subslices, so growing vals never invalidates earlier parts.
type part struct {
	seq  uint64
	key  int64
	ts   Time
	arr  Time
	voff int32
	vlen int32
}

// Joined is the result of joining tuples from multiple streams. Parts are
// stored in a slice indexed by the JoinSchema slot of their stream, with all
// payload values appended into one flat buffer.
//
// Ts is the maximum constituent timestamp (the join result's time); Arrival
// is the earliest constituent arrival (for latency accounting).
type Joined struct {
	blk  *Block // the owner: a real block, or one of the schema's two markers
	mask uint64 // bit i set ⇔ slot i populated

	Ts      Time
	Arrival Time

	parts []part
	vals  []float64
}

// Release gives j back to its owner: a block row counts down its block's
// live rows (the last one recycles the block), an Acquired singleton is reset
// and pooled. The caller must not use j (or any Part view of it) afterwards,
// and must not Release twice. On a tuple a subscriber was delivered — stolen
// or copied by Detach — Release does nothing: no pool owns it.
func (j *Joined) Release() {
	b := j.blk
	switch {
	case b.detached:
	case b.structs == nil:
		j.mask = 0
		j.Ts, j.Arrival = 0, 0
		j.vals = j.vals[:0]
		b.schema.pool.Put(j)
	default:
		b.live--
		if b.live == 0 {
			b.recycle()
		}
	}
}

// SetPart fills the given slot from raw columns, copying vals into the
// result's flat buffer and folding ts/arrival into the aggregates.
func (j *Joined) SetPart(slot int, seq uint64, ts Time, key int64, arrival Time, vals []float64) {
	off := int32(len(j.vals))
	j.vals = append(j.vals, vals...)
	j.parts[slot] = part{seq: seq, key: key, ts: ts, arr: arrival, voff: off, vlen: int32(len(vals))}
	j.fold(slot, ts, arrival)
}

// fold marks slot populated and folds its timestamps into the aggregates.
func (j *Joined) fold(slot int, ts, arrival Time) {
	if j.mask == 0 {
		j.Ts, j.Arrival = ts, arrival
	} else {
		if ts > j.Ts {
			j.Ts = ts
		}
		if arrival < j.Arrival {
			j.Arrival = arrival
		}
	}
	j.mask |= 1 << uint(slot)
}

// Detach turns src — tuples the pipeline is about to Release — into tuples
// that outlive it, by the cheaper of two means. When src is every live row of
// one block and fills at least half of it, the block is stolen: it is marked
// detached, never recycled, and the returned slice points at the rows as they
// are — one allocation, no copy. Otherwise each tuple is copied into three
// fresh slabs (structs, parts, payloads) sized for exactly src. Either way the
// results of one call share backing arrays — retaining any retains them all —
// which hold at most twice the bytes of the tuples themselves; each tuple's
// slices are capped at its own segment, so writing to one never reaches
// another; and Release on them, by the pipeline afterwards or by the
// subscriber ever, does nothing.
func Detach(src []*Joined) []*Joined {
	if len(src) == 0 {
		return nil
	}
	out := make([]*Joined, len(src))
	if b := src[0].blk; b.structs != nil && b.live == len(src) && 2*len(src) >= len(b.structs) && ownsAll(b, src) {
		b.detached = true
		copy(out, src)
		return out
	}
	nParts, nVals := 0, 0
	for _, j := range src {
		nParts += len(j.parts)
		nVals += len(j.vals)
	}
	structs := make([]Joined, len(src))
	parts := make([]part, nParts)
	vals := make([]float64, nVals)
	for i, j := range src {
		d := &structs[i]
		*d = *j
		d.blk = &j.blk.schema.loose
		np, nv := len(j.parts), len(j.vals)
		d.parts, parts = parts[:np:np], parts[np:]
		d.vals, vals = vals[:nv:nv], vals[nv:]
		copy(d.parts, j.parts)
		copy(d.vals, j.vals)
		out[i] = d
	}
	return out
}

// ownsAll reports whether every tuple of src is a row of b.
func ownsAll(b *Block, src []*Joined) bool {
	for _, j := range src {
		if j.blk != b {
			return false
		}
	}
	return true
}

// Has reports whether the given slot is populated (false for negative
// slots, so a not-in-schema lookup degrades to "absent").
func (j *Joined) Has(slot int) bool { return slot >= 0 && j.mask&(1<<uint(slot)) != 0 }

// Len returns the number of populated parts.
func (j *Joined) Len() int { return bits.OnesCount64(j.mask) }

// NumVals returns the number of payload values across all parts — what a
// clone of j occupies in a block's payload slab.
func (j *Joined) NumVals() int { return len(j.vals) }

// Key returns the equi-join key of the first populated part (all parts of an
// equi-join share it), or 0 if j is empty.
func (j *Joined) Key() int64 {
	if j.mask == 0 {
		return 0
	}
	return j.parts[bits.TrailingZeros64(j.mask)].key
}

// Val returns payload value i of the part at the given slot; ok is false if
// the slot is empty or the payload is shorter than i+1.
func (j *Joined) Val(slot, i int) (float64, bool) {
	if !j.Has(slot) {
		return 0, false
	}
	p := &j.parts[slot]
	if int32(i) >= p.vlen {
		return 0, false
	}
	return j.vals[p.voff+int32(i)], true
}

// Part materializes the tuple at the given slot as a view. Its Vals alias
// j's buffer — valid only until j is Released.
func (j *Joined) Part(slot int) (Tuple, bool) {
	if !j.Has(slot) {
		return Tuple{}, false
	}
	p := &j.parts[slot]
	return Tuple{
		Stream:  j.blk.schema.streams[slot],
		Seq:     p.seq,
		Ts:      p.ts,
		Key:     p.key,
		Arrival: p.arr,
		Vals:    j.vals[p.voff : p.voff+p.vlen : p.voff+p.vlen],
	}, true
}

// PartByStream is Part keyed by stream name.
func (j *Joined) PartByStream(streamName string) (Tuple, bool) {
	slot := j.blk.schema.Slot(streamName)
	if slot < 0 {
		return Tuple{}, false
	}
	return j.Part(slot)
}

// Streams returns the populated stream names in slot (schema) order.
func (j *Joined) Streams() []string {
	out := make([]string, 0, j.Len())
	for i, s := range j.blk.schema.streams {
		if j.Has(i) {
			out = append(out, s)
		}
	}
	return out
}
