package stream

import (
	"math"
	"math/bits"
	"sync"
)

// maxJoinStreams bounds the number of streams a JoinSchema can index; the
// presence mask is a uint64.
const maxJoinStreams = 64

// JoinSchema precomputes the stream-name → slot mapping for one query's join
// results, so a Joined can store its parts in fixed records indexed by slot
// instead of a per-result map. It also owns the pools join results are
// recycled through: blocks for the pipeline, singletons for Acquire.
type JoinSchema struct {
	streams []string
	index   map[string]int
	rec     int       // data words of a row's part records: partWords per slot
	pool    sync.Pool // singleton *Joined, see Acquire
	blocks  blockPools
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
	sch := &JoinSchema{streams: cp, index: idx, rec: partWords * len(cp)}
	sch.pool.New = func() any {
		return &Joined{blk: &Block{schema: sch, class: singletonBlock, data: make([]float64, sch.rec)}}
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

// Acquire returns an empty pooled Joined that owns a one-row block, filled
// through SetPart — how tests and the layer benchmark seed partials; the
// pipeline itself builds rows in blocks (AcquireBlock). Release it exactly
// once when done; what must outlive that leaves through Detach.
func (s *JoinSchema) Acquire() *Joined {
	return s.pool.Get().(*Joined)
}

// Joined is the result of joining tuples from multiple streams: a row of a
// Block. Its record in the block's data slab, from doff on, is one part
// record per schema slot (valid where mask says so), then the payloads of
// every part, nv values in all. All parts of an equi-join share one key,
// stored once.
//
// Ts is the maximum constituent timestamp (the join result's time); Arrival
// is the earliest constituent arrival (for latency accounting).
type Joined struct {
	blk  *Block // the owner; the only pointer, so a block's structs stay cheap to scan
	mask uint64 // bit i set ⇔ slot i populated

	Ts      Time
	Arrival Time

	key  int64
	doff int32 // the row's first word in blk.data
	nv   int32 // payload values, all parts together
}

// record returns j's part records and payloads.
func (j *Joined) record() []float64 {
	end := int(j.doff) + j.blk.schema.rec + int(j.nv)
	return j.blk.data[j.doff:end:end]
}

// part returns the record of the given slot, populated or not.
func (j *Joined) part(slot int) []float64 {
	rec := j.record()[:j.blk.schema.rec]
	return rec[slot*partWords:][:partWords]
}

// vals returns the payload of the given slot's part.
func (j *Joined) vals(slot int) []float64 {
	seg := math.Float64bits(j.part(slot)[partVals])
	lo := int(j.doff) + j.blk.schema.rec + int(seg>>32)
	hi := lo + int(uint32(seg))
	return j.blk.data[lo:hi:hi]
}

// setPart writes the record of the given slot into data, j's block's slab,
// claiming the next nv payload values of the row for it.
func (j *Joined) setPart(data []float64, slot int, seq uint64, ts Time, key int64, arrival Time, nv int) {
	d := int(j.doff)
	r := data[d : d+j.blk.schema.rec][slot*partWords:][:partWords]
	r[partSeq] = math.Float64frombits(seq)
	r[partTs] = float64(ts)
	r[partArr] = float64(arrival)
	r[partVals] = math.Float64frombits(uint64(j.nv)<<32 | uint64(nv))
	j.nv += int32(nv)
	if j.mask == 0 {
		j.Ts, j.Arrival, j.key = ts, arrival, key
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

// Release gives j back to its owner: a block row counts down its block's
// live rows (the last one recycles the block), an Acquired singleton is reset
// and pooled. The caller must not use j (or any Part view of it) afterwards,
// and must not Release twice. On a tuple a subscriber was delivered — stolen
// or copied by Detach — Release does nothing: no pool owns it.
func (j *Joined) Release() {
	b := j.blk
	switch {
	case b.detached:
	case b.class == singletonBlock:
		j.mask, j.Ts, j.Arrival, j.key, j.nv = 0, 0, 0, 0, 0
		b.schema.pool.Put(j)
	default:
		b.live--
		if b.live == 0 {
			b.recycle()
		}
	}
}

// SetPart fills the given slot from raw columns, copying vals after the
// row's payload and folding ts/arrival into the aggregates; key must be that
// of the row's other parts. It grows only a row that owns its storage: an
// Acquired singleton, or a tuple Detach delivered, which it first moves to
// a block of its own so that the rows delivered with it stay as they were.
// A row of a live pipeline block is built by Row/AddPart, Seed, AppendJoin
// and CloneWith; SetPart on one panics.
func (j *Joined) SetPart(slot int, seq uint64, ts Time, key int64, arrival Time, vals []float64) {
	b := j.blk
	switch {
	case b.class == singletonBlock:
	case !b.detached:
		panic("stream: SetPart on a row of a live pipeline block (build it with Row/AddPart, Seed, AppendJoin or CloneWith)")
	case b.n > 1:
		rec := j.record()
		b = &Block{schema: b.schema, class: unpooledBlocks, n: 1, detached: true, data: make([]float64, len(rec), len(rec)+len(vals))}
		copy(b.data, rec)
		j.blk, j.doff = b, 0
	}
	end := int(j.doff) + b.schema.rec + int(j.nv)
	b.data = append(b.data[:end], vals...)
	j.setPart(b.data, slot, seq, ts, key, arrival, len(vals))
}

// Detach turns src — tuples the pipeline is about to Release, all of one
// schema — into tuples that outlive it, by the cheaper of two means. When
// src is every live row of one block and fills at least half of it, the
// block is stolen: it is marked detached, never recycled, and the returned
// slice points at the rows as they are — one allocation, no copy. Otherwise
// the tuples are copied into one fresh block sized for exactly src. Either
// way the results of one call share backing arrays — retaining any retains
// them all — which hold at most twice the bytes of the tuples themselves;
// each tuple's views are capped at its own segment, so writing to one never
// reaches another; and Release on them, by the pipeline afterwards or by the
// subscriber ever, does nothing.
func Detach(src []*Joined) []*Joined {
	if len(src) == 0 {
		return nil
	}
	out := make([]*Joined, len(src))
	if b := src[0].blk; b.live == len(src) && 2*len(src) >= len(b.structs) && ownsAll(b, src) {
		b.detached = true
		copy(out, src)
		return out
	}
	words := 0
	for _, j := range src {
		words += len(j.record())
	}
	d := &Block{schema: src[0].blk.schema, class: unpooledBlocks, structs: make([]Joined, len(src)), data: make([]float64, words), n: len(src), detached: true}
	off := 0
	for i, j := range src {
		c := &d.structs[i]
		*c = *j
		c.blk, c.doff = d, int32(off)
		off += copy(d.data[off:], j.record())
		out[i] = c
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
// clone of j occupies in a block's data slab besides its part records.
func (j *Joined) NumVals() int { return int(j.nv) }

// Key returns the equi-join key all of j's parts share, or 0 if j is empty.
func (j *Joined) Key() int64 { return j.key }

// Val returns payload value i of the part at the given slot; ok is false if
// the slot is empty or the payload is shorter than i+1.
func (j *Joined) Val(slot, i int) (float64, bool) {
	if !j.Has(slot) {
		return 0, false
	}
	vals := j.vals(slot)
	if i >= len(vals) {
		return 0, false
	}
	return vals[i], true
}

// Part materializes the tuple at the given slot as a view. Its Vals alias
// j's block — valid only until j is Released.
func (j *Joined) Part(slot int) (Tuple, bool) {
	if !j.Has(slot) {
		return Tuple{}, false
	}
	r := j.part(slot)
	return Tuple{
		Stream:  j.blk.schema.streams[slot],
		Seq:     math.Float64bits(r[partSeq]),
		Ts:      Time(r[partTs]),
		Key:     j.key,
		Arrival: Time(r[partArr]),
		Vals:    j.vals(slot),
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
