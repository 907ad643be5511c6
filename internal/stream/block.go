package stream

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Block sizes come from a fixed geometric ladder — blockSteps sizes per
// doubling, from minBlockRows up — with one pool per rung. A block's row
// capacity is therefore at most 1/blockSteps above the need it was made
// for, every block in a pool fits every request that looks there (no block
// is ever regrown in its rows), and one filled with the rows it was sized
// for always passes Detach's half-full rule. Needs past the last rung are
// allocated exactly and never pooled.
const (
	minBlockBits   = 5
	minBlockRows   = 1 << minBlockBits
	blockStepBits  = 4
	blockSteps     = 1 << blockStepBits
	maxBlockBits   = 20
	numBlockPools  = (maxBlockBits-minBlockBits)*blockSteps + 1
	unpooledBlocks = -1
	singletonBlock = -2 // an Acquired row's own block, pooled with the row
)

// blockClass returns the pool index and row capacity of the smallest rung
// holding n rows; the index is unpooledBlocks (and the capacity n itself)
// past the top of the ladder.
func blockClass(n int) (class, rows int) {
	if n <= minBlockRows {
		return 0, minBlockRows
	}
	if n > 1<<maxBlockBits {
		return unpooledBlocks, n
	}
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	sh := e - blockStepBits
	step := (n-1)>>sh + 1 // in (blockSteps, 2*blockSteps]
	return (e-minBlockBits)*blockSteps + step - blockSteps, step << sh
}

// Block is the storage of one stage output: every row a stage emits (or an
// ingest seeds, or a wire decoder rebuilds) is carved from one block's two
// slabs by bumping an index and writing sequentially. structs holds the
// Joined headers; data, which holds no pointer, holds each row's record and
// nothing else: w part records of partWords words, one per schema slot, then
// the row's payload values. Rows are handed out through Seed, CloneWith and
// Row/AddPart and given back one Release each; the release of the last live
// row recycles the block into its schema's pool, unless Detach has stolen
// it, in which case it is never recycled and the rows are the subscriber's
// for good.
//
// A block is not safe for concurrent use, and needs no lock: all its live
// rows sit in the partials of one message, and a message has one holder at a
// time.
type Block struct {
	schema *JoinSchema
	class  int // where a released block goes: a rung, unpooledBlocks or singletonBlock

	structs []Joined  // made once per block and never regrown
	data    []float64 // part records and payloads; regrown between uses, or by SetPart

	n    int // rows handed out
	off  int // data words handed out
	live int // rows handed out and not yet released

	// detached is set once, by Detach (or at construction, for a block
	// Detach copies into or SetPart moves a delivered row to), before any
	// row reaches a subscriber; Release reads it from whatever goroutine
	// the subscriber calls it on.
	detached bool
}

// Word offsets within a part record. seq and the payload segment (offset
// from the row's first payload value in the high half, length in the low)
// are uint64s stored through math.Float64frombits, which round-trips every
// bit pattern.
const (
	partSeq = iota
	partTs
	partArr
	partVals
	partWords
)

// blockPools is a schema's block storage: one pool per rung of the size
// ladder, plus the two counters that make "every block acquired was
// recycled" checkable from outside.
type blockPools struct {
	pools    [numBlockPools]sync.Pool
	acquired atomic.Int64
	recycled atomic.Int64
}

// AcquireBlock returns an empty block with room for at least rows rows and
// nvals payload values in total. Size it before filling, from numbers the
// caller already has: filling past either is a bug and panics. Every row
// taken from it must be Released exactly once.
func (s *JoinSchema) AcquireBlock(rows, nvals int) *Block {
	s.blocks.acquired.Add(1)
	class, capRows := blockClass(rows)
	var b *Block
	if class != unpooledBlocks {
		b, _ = s.blocks.pools[class].Get().(*Block)
	}
	if b == nil {
		b = &Block{schema: s, class: class, structs: make([]Joined, capRows)}
	}
	need := rows*s.rec + nvals
	if need > math.MaxInt32 {
		panic("stream: block over 2^31 data words")
	}
	if cap(b.data) < need {
		// Scale the data slab with the row slab, so the same block serves
		// the same kind of stage again without regrowing. Only a block that
		// moves to a wider stage regrows, and then once.
		perRow := (need + rows - 1) / max(rows, 1)
		b.data = make([]float64, max(need, perRow*capRows))
	}
	return b
}

// BlockCounts returns how many blocks have been acquired from the schema and
// how many of those have been recycled; the difference is blocks in flight
// plus blocks Detach has stolen.
func (s *JoinSchema) BlockCounts() (acquired, recycled int64) {
	return s.blocks.acquired.Load(), s.blocks.recycled.Load()
}

func (b *Block) recycle() {
	b.n, b.off, b.live = 0, 0, 0
	b.schema.blocks.recycled.Add(1)
	if b.class != unpooledBlocks {
		b.schema.blocks.pools[b.class].Put(b)
	}
}

// take hands out the block's next row with its part records reserved,
// whatever its last use left in them.
func (b *Block) take() *Joined {
	j := &b.structs[b.n]
	b.n++
	b.live++
	j.blk, j.doff = b, int32(b.off)
	b.off += b.schema.rec
	return j
}

// Row starts the block's next row, empty. It is filled through AddPart, and
// only until the block's next Row, Seed or CloneWith.
func (b *Block) Row() *Joined {
	j := b.take()
	j.mask, j.Ts, j.Arrival, j.key, j.nv = 0, 0, 0, 0, 0
	return j
}

// AddPart fills the given slot of j, which must be the block's newest row,
// and returns the part's payload — nv values for the caller to write.
func (b *Block) AddPart(j *Joined, slot int, seq uint64, ts Time, key int64, arrival Time, nv int) []float64 {
	vals := b.data[b.off : b.off+nv : b.off+nv]
	b.off += nv
	j.setPart(b.data, slot, seq, ts, key, arrival, nv)
	return vals
}

// Seed returns the block's next row holding one part: a source tuple
// entering the pipeline.
func (b *Block) Seed(slot int, seq uint64, ts Time, key int64, arrival Time, vals []float64) *Joined {
	j := b.Row()
	copy(b.AddPart(j, slot, seq, ts, key, arrival, len(vals)), vals)
	return j
}

// CloneWith returns the block's next row holding p's parts plus the given
// slot: one join match. p is left as it was and may belong to any block of
// the block's schema; key must be p's.
func (b *Block) CloneWith(p *Joined, slot int, seq uint64, ts Time, key int64, arrival Time, vals []float64) *Joined {
	j := b.take()
	end := b.off + int(p.nv) + len(vals)
	copy(b.data[j.doff:end], p.record())
	copy(b.data[end-len(vals):end], vals)
	b.off = end
	j.mask, j.Ts, j.Arrival, j.key, j.nv = p.mask, p.Ts, p.Arrival, p.key, p.nv
	j.setPart(b.data, slot, seq, ts, key, arrival, len(vals))
	return j
}
