package stream

import (
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
// ingest seeds, or a wire decoder rebuilds) is carved from one block's three
// slabs — the Joined structs, their parts, their payloads — by bumping an
// index and writing sequentially. Rows are handed out through Seed, CloneWith
// and Row/AddPart and given back one Release each; the release of the last
// live row recycles the block into its schema's pool, unless Detach has
// stolen it, in which case it is never recycled and the rows are the
// subscriber's for good.
//
// A block is not safe for concurrent use, and needs no lock: all its live
// rows sit in the partials of one message, and a message has one holder at a
// time.
type Block struct {
	schema *JoinSchema
	class  int

	// structs and parts are made once per block and never regrown; row i's
	// parts slice is carved when they are made. A nil structs marks the
	// schema's two ownerless markers (see JoinSchema).
	structs []Joined
	parts   []part
	vals    []float64

	n    int // rows handed out
	off  int // vals handed out
	live int // rows handed out and not yet released

	// detached is set once, by Detach (or at construction, for the
	// schema's marker of copied rows), before any row reaches a
	// subscriber; Release reads it from whatever goroutine the subscriber
	// calls it on.
	detached bool
}

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
		w := len(s.streams)
		b = &Block{schema: s, class: class, structs: make([]Joined, capRows), parts: make([]part, capRows*w)}
		for i := range b.structs {
			b.structs[i].blk = b
			b.structs[i].parts = b.parts[i*w : (i+1)*w : (i+1)*w]
		}
	}
	if cap(b.vals) < nvals {
		// Scale the payload slab with the row slab, so the same block serves
		// the same kind of stage again without regrowing. Only a block that
		// moves to a wider stage regrows, and then once.
		perRow := (nvals + rows - 1) / max(rows, 1)
		b.vals = make([]float64, max(nvals, perRow*capRows))
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

// take hands out the block's next row, whatever its last use left in it.
func (b *Block) take() *Joined {
	j := &b.structs[b.n]
	b.n++
	b.live++
	return j
}

// Row starts the block's next row, empty. It is filled through AddPart, and
// only until the block's next Row, Seed or CloneWith.
func (b *Block) Row() *Joined {
	j := b.take()
	j.mask, j.Ts, j.Arrival = 0, 0, 0
	j.vals = b.vals[b.off:b.off:b.off]
	return j
}

// AddPart fills the given slot of j, which must be the block's newest row,
// and returns the part's payload — nv values for the caller to write.
func (b *Block) AddPart(j *Joined, slot int, seq uint64, ts Time, key int64, arrival Time, nv int) []float64 {
	lo := b.off - len(j.vals)
	j.parts[slot] = part{seq: seq, key: key, ts: ts, arr: arrival, voff: int32(len(j.vals)), vlen: int32(nv)}
	b.off += nv
	j.vals = b.vals[lo:b.off:b.off]
	j.fold(slot, ts, arrival)
	return j.vals[len(j.vals)-nv:]
}

// Seed returns the block's next row holding one part: a source tuple
// entering the pipeline.
func (b *Block) Seed(slot int, seq uint64, ts Time, key int64, arrival Time, vals []float64) *Joined {
	j := b.Row()
	copy(b.AddPart(j, slot, seq, ts, key, arrival, len(vals)), vals)
	return j
}

// CloneWith returns the block's next row holding p's parts plus the given
// slot: one join match. p is left as it was and may belong to any block.
func (b *Block) CloneWith(p *Joined, slot int, seq uint64, ts Time, key int64, arrival Time, vals []float64) *Joined {
	j := b.take()
	np := len(p.vals)
	end := b.off + np + len(vals)
	j.vals = b.vals[b.off:end:end]
	b.off = end
	copy(j.parts, p.parts)
	copy(j.vals, p.vals)
	copy(j.vals[np:], vals)
	j.parts[slot] = part{seq: seq, key: key, ts: ts, arr: arrival, voff: int32(np), vlen: int32(len(vals))}
	j.mask, j.Ts, j.Arrival = p.mask, p.Ts, p.Arrival
	j.fold(slot, ts, arrival)
	return j
}
