package engine

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
)

// This file is the node-local half of the engine: operator window state and
// the vectorized stage kernels, factored into NodeCore so the same code runs
// both inside the in-process Engine (all nodes share one NodeCore) and
// inside a netrt worker process (one NodeCore per process, holding only the
// operators placed on that node). Everything above this layer — routing,
// queues, failure lifecycle, statistics — is substrate-specific.

// partialsPool recycles the partial-result slices that carry batches between
// stages; joins grow them, so pooling the backing arrays cuts most of the
// engine's steady-state allocation. A sync.Pool holds pointers, and boxing a
// slice header on every Put would be an allocation per stage, so the boxes
// are recycled as well: getPartials empties one into partialsBoxes and
// putPartials refills it.
var (
	partialsPool = sync.Pool{New: func() any {
		s := make([]*stream.Joined, 0, 256)
		return &s
	}}
	partialsBoxes = sync.Pool{New: func() any { return new([]*stream.Joined) }}
)

func getPartials() []*stream.Joined {
	box := partialsPool.Get().(*[]*stream.Joined)
	s := *box
	*box = nil
	partialsBoxes.Put(box)
	return s
}

// putPartials clears s and returns it to the pool. Pooled arrays must not
// pin tuples past their life, and nothing is ever left beyond len: a slice
// only grows by append, and the one kernel that shrinks it (select, filtering
// in place) clears the tail it drops.
func putPartials(s []*stream.Joined) {
	clear(s)
	box := partialsBoxes.Get().(*[]*stream.Joined)
	*box = s[:0]
	partialsPool.Put(box)
}

// shardScratch is the pooled per-batch workspace for the vectorized shard
// paths: counting-sort arrays that group rows (inserts) or partials (probes)
// by destination shard, and the join stage's per-probe match counts and
// newest matches, which carry its count pass over to its fill pass, and the
// count's cursors. Everything but spare is index- or scalar-typed, and spare
// is put back cleared, so recycling needs no pointer clearing.
type shardScratch struct {
	// spare is a join stage's partials slice: the stage writes its output
	// into it and leaves its cleared inbound slice here for the next, so
	// the slices circulate without a trip through partialsPool.
	spare   []*stream.Joined
	shardOf []int32  // item → destination shard
	starts  []int32  // shard → group start in order (len nShards+1)
	cnt     []int32  // counting-sort cursors
	order   []int32  // item indices grouped by shard
	ident   []int32  // 0, 1, 2, …: the run of a one-shard insert (see identity)
	probe   []int32  // join stage: indices of partials that probe
	keys    []int64  // per probe: its join key, then the same keys grouped by shard
	gcount  []int32  // per grouped probe: match count
	heads   []uint64 // per grouped probe: its newest match's position
	walk    []uint64 // per grouped probe: the count pass's cursor
	mcount  []int32  // per probe: rows written
	mstart  []int32  // per probe: its first row in the join block
}

var scratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

func getScratch() *shardScratch   { return scratchPool.Get().(*shardScratch) }
func putScratch(sc *shardScratch) { scratchPool.Put(sc) }

// grow32 returns s resized to length n (reallocating only to grow capacity).
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// identity returns the items 0..n-1 in order: one shard's whole run. The
// slice only ever grows, so each entry is written once per scratch.
func (sc *shardScratch) identity(n int) []int32 {
	for i := len(sc.ident); i < n; i++ {
		sc.ident = append(sc.ident, int32(i))
	}
	return sc.ident[:n]
}

// group counting-sorts items 0..n-1 into per-shard runs using the shard
// assignments the caller wrote to sc.shardOf[:n]. Afterwards
// sc.order[sc.starts[s]:sc.starts[s+1]] lists shard s's items in input order.
// With one shard there is nothing to sort: the run is every item, in order.
func (sc *shardScratch) group(n, nShards int) {
	if nShards == 1 {
		sc.starts = append(sc.starts[:0], 0, int32(n))
		sc.order = grow32(sc.order, n)
		for i := range sc.order {
			sc.order[i] = int32(i)
		}
		return
	}
	sc.cnt = grow32(sc.cnt, nShards)
	clear(sc.cnt)
	for _, sh := range sc.shardOf[:n] {
		sc.cnt[sh]++
	}
	sc.starts = grow32(sc.starts, nShards+1)
	off := int32(0)
	for i := 0; i < nShards; i++ {
		sc.starts[i] = off
		off += sc.cnt[i]
		sc.cnt[i] = sc.starts[i]
	}
	sc.starts[nShards] = off
	sc.order = grow32(sc.order, n)
	for i := 0; i < n; i++ {
		sh := sc.shardOf[i]
		sc.order[sc.cnt[sh]] = int32(i)
		sc.cnt[sh]++
	}
}

// opShard is one hash partition of a join operator's window state, guarded
// by its own lock so parallel workers inserting and probing different keys
// don't contend. A node drained by one worker has one shard per operator.
type opShard struct {
	mu     sync.Mutex
	window *stream.Window //rldlint:guardedby mu
}

// opState is the runtime state of one operator: the sharded window plus
// lock-free observed-selectivity counters.
type opState struct {
	op   query.Operator
	span float64
	// slot is the operator's stream slot in the engine's JoinSchema.
	slot   int
	shards []*opShard
	// maxTs is the operator-wide high-water application timestamp
	// (float64 bits): probes expire their shard against it, so a shard
	// that rarely receives inserts cannot serve stale tuples.
	maxTs atomic.Uint64
	// winLen is the total buffered tuple count across shards (the "pairs
	// examined" denominator a full-window probe would see).
	winLen atomic.Int64
	// in/out accumulate observed selectivity: tuples examined/passed for
	// selections, pairs/matches for joins.
	in  atomic.Int64
	out atomic.Int64
	// seen, allocated only in durable (WAL) mode, maps the TupleID of
	// every tuple ever admitted to this operator's window (pruned once the
	// tuple has aged past the window span) to its timestamp. WAL replay
	// and source re-offers re-insert batches that may overlap state the
	// snapshot or an earlier delivery already covers; filtering on seen
	// makes insertion idempotent, which is what turns at-least-once
	// delivery into exactly-once.
	seenMu      sync.Mutex
	seen        map[stream.TupleID]stream.Time //rldlint:guardedby seenMu
	seenPruneAt int                            //rldlint:guardedby seenMu
}

// dedupFilter returns b with every already-seen tuple removed, recording
// the rest as seen. It returns b itself when nothing is filtered (the
// fast path is allocation-free), a fresh filtered copy when some rows are
// duplicates, and nil when all of them are.
func (s *opState) dedupFilter(b *stream.Batch) *stream.Batch {
	n := b.Len()
	w := b.Width()
	s.seenMu.Lock()
	defer s.seenMu.Unlock()
	var out *stream.Batch
	for i := 0; i < n; i++ {
		id := stream.MakeTupleID(s.slot, b.Seq[i])
		if _, dup := s.seen[id]; dup {
			if out == nil {
				// First duplicate: lazily copy the clean prefix.
				out = stream.NewSizedBatch(b.Stream, w, n)
				for j := 0; j < i; j++ {
					copy(out.AppendRow(b.Seq[j], b.Ts[j], b.Key[j], b.Arr[j]), b.Vals[j*w:(j+1)*w])
				}
			}
			continue
		}
		s.seen[id] = b.Ts[i]
		if out != nil {
			copy(out.AppendRow(b.Seq[i], b.Ts[i], b.Key[i], b.Arr[i]), b.Vals[i*w:(i+1)*w])
		}
	}
	if len(s.seen) >= s.seenPruneAt {
		s.pruneSeenLocked()
	}
	if out == nil {
		return b
	}
	if out.Len() == 0 {
		return nil
	}
	return out
}

// recordRestored records the rows of a snapshot RestoreOp is loading in the
// seen set ClearOp has just emptied, leaving the set as dedupFilter would:
// every row, less — when the snapshot reaches the prune threshold — the rows
// that filter's first prune would drop, those below the current cutoff. It
// does so without dedupFilter's lookups, which find nothing in an empty set
// (a snapshot of a deduplicated window repeats no row), and without the
// prune's walk over the map. A smaller snapshot's rows below the cutoff stay
// recorded, though the restore skips loading them: a re-insert of one is
// dropped as a duplicate, as it is after a restore that loads it.
func (s *opState) recordRestored(b *stream.Batch) {
	s.seenMu.Lock()
	defer s.seenMu.Unlock()
	n := b.Len()
	cutoff := stream.Time(math.Inf(-1))
	pruned := n >= s.seenPruneAt
	if pruned {
		cutoff = s.cutoff()
	}
	for i := 0; i < n; i++ {
		if ts := b.Ts[i]; ts >= cutoff {
			s.seen[stream.MakeTupleID(s.slot, b.Seq[i])] = ts
		}
	}
	if pruned {
		s.prunedLocked()
	}
}

// pruneSeenLocked drops seen entries whose tuples have aged past the
// window span (below the operator's cutoff) — they can no longer be in the
// window, and a replayed duplicate that old would be expired on arrival
// anyway.
func (s *opState) pruneSeenLocked() {
	cutoff := s.cutoff()
	for id, ts := range s.seen {
		if ts < cutoff {
			delete(s.seen, id)
		}
	}
	s.prunedLocked()
}

// seenPruneMin is the seen set's first prune threshold, and its least.
const seenPruneMin = 1024

// prunedLocked sets the seen set's next prune threshold once a prune has
// dropped the rows below the cutoff: twice the surviving population, so the
// scan stays amortized O(1) per insert.
func (s *opState) prunedLocked() { s.seenPruneAt = max(seenPruneMin, 2*len(s.seen)) }

// advanceTs lifts the operator's high-water timestamp to at least ts.
func (s *opState) advanceTs(ts float64) {
	bits := math.Float64bits(ts)
	for {
		old := s.maxTs.Load()
		// Non-negative float64 bit patterns order like the floats.
		if old >= bits || s.maxTs.CompareAndSwap(old, bits) {
			return
		}
	}
}

// insertBatch bulk-inserts a whole batch into the operator's sharded window:
// rows are grouped by destination shard (counting sort over the key column;
// with one shard the run is every row, in order), and each shard's lock is
// taken once for its whole run instead of once per tuple. Deferring each
// shard's expiration to its run's max timestamp retains exactly the set
// per-tuple insertion would (expiration is a prefix scan, so intermediate
// cutoffs only evict what the final one evicts).
//
// restore is for shards ClearOp has just emptied (see RestoreOp): each
// shard's run then starts at its first row whose timestamp is at or above
// the operator's expiry cutoff, and the rows are recorded as seen by
// recordRestored rather than filtered.
func (s *opState) insertBatch(b *stream.Batch, sc *shardScratch, restore bool) {
	//rldlint:allow guardedby -- nil-ness is a construction-time mode flag (durable vs not), never written after; only the map contents need seenMu
	switch {
	case s.seen == nil:
	case restore:
		s.recordRestored(b)
	default:
		if b = s.dedupFilter(b); b == nil {
			return
		}
	}
	n := b.Len()
	if n == 0 {
		return
	}
	s.advanceTs(float64(b.MaxTs()))
	cutoff := stream.Time(math.Inf(-1))
	if restore {
		cutoff = s.cutoff()
	}
	var order, starts []int32
	if nShards := len(s.shards); nShards == 1 {
		order, starts = sc.identity(n), []int32{0, int32(n)}
	} else {
		mask := uint64(nShards - 1)
		sc.shardOf = grow32(sc.shardOf, n)
		for i := 0; i < n; i++ {
			sc.shardOf[i] = int32(uint64(b.Key[i]) & mask)
		}
		sc.group(n, nShards)
		order, starts = sc.order, sc.starts
	}
	var delta int64
	for si, sh := range s.shards {
		run := order[starts[si]:starts[si+1]]
		for len(run) > 0 && b.Ts[run[0]] < cutoff {
			run = run[1:]
		}
		if len(run) == 0 {
			continue
		}
		sh.mu.Lock()
		before := sh.window.Len()
		sh.window.InsertRows(b, run)
		delta += int64(sh.window.Len() - before)
		sh.mu.Unlock()
	}
	if delta != 0 {
		s.winLen.Add(delta)
	}
}

// cutoff is the timestamp a probe expires the operator's shards to: the
// high-water timestamp less the span.
func (s *opState) cutoff() stream.Time {
	return stream.Time(math.Float64frombits(s.maxTs.Load()) - s.span)
}

// observedSel is the observed-selectivity rule: the optimizer's estimate est
// until the operator has seen 32 inputs, then out/in.
func observedSel(est float64, in, out int64) float64 {
	if in < 32 {
		return est
	}
	return float64(out) / float64(in)
}

// numShards is the number of hash partitions of each join operator's window
// state on a node with parallel workers, each with its own lock, so the
// workers' concurrent batches contend per shard rather than per operator. A
// power of two: shards are picked by masking the key.
const numShards = 16

// shardsFor is the shard count of a node drained by workers goroutines. One
// worker keeps one window per operator: a join stage then probes all of its
// keys as one group, whose chain walks overlap their cache misses, instead
// of splitting them across locks that guard no parallel work.
func shardsFor(workers int) int {
	if workers == 1 {
		return 1
	}
	return numShards
}

// normalizeConfig fills Config defaults in place; both the Engine and a netrt
// worker normalize the same way so a serialized Config means the same thing
// on both sides.
func normalizeConfig(cfg Config) Config {
	if cfg.SelectThresholdScale <= 0 {
		cfg.SelectThresholdScale = 100
	}
	if cfg.Workers < 1 {
		cfg.Workers = stdruntime.GOMAXPROCS(0)
	}
	return cfg
}

// NodeCore is the shareable node/worker core: every operator's window state
// and the vectorized Select/Join stage kernels, with no routing, queueing,
// or failure logic attached. The in-process Engine embeds one NodeCore for
// the whole cluster; a netrt worker process wraps one and serves its hosted
// operators over the wire.
type NodeCore struct {
	q   *query.Query
	cfg Config
	// schema maps stream names to Joined part slots for this query; it
	// also owns the pools the blocks of join results are recycled through.
	schema *stream.JoinSchema
	ops    []*opState
	// admitted[slot] counts the tuples the router admitted on the stream
	// of that schema slot: the rate counters beside the operators'
	// selectivity counters, kept by the router's NodeCore only.
	admitted []atomic.Int64
	// joinOps maps a stream name to the indices of the join operators
	// over it — precomputed so the durable ingest path can stamp WAL
	// records without a per-batch scan or allocation.
	joinOps map[string][]int
}

// NewNodeCore builds the operator state for q under cfg (normalized with
// the same defaults the Engine uses), with the shard count shardsFor picks
// for cfg's worker count.
func NewNodeCore(q *query.Query, cfg Config) (*NodeCore, error) {
	return newNodeCore(q, cfg, shardsFor(normalizeConfig(cfg).Workers))
}

// newNodeCore is NewNodeCore with the shard count (a power of two) as a
// parameter, for the tests that pin the kernels at 1, 4 and 16 shards.
func newNodeCore(q *query.Query, cfg Config, shards int) (*NodeCore, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if len(q.Streams) > 64 {
		return nil, fmt.Errorf("%w: %d streams exceed the 64-stream join schema", runtime.ErrBadPlacement, len(q.Streams))
	}
	cfg = normalizeConfig(cfg)
	c := &NodeCore{q: q, cfg: cfg, schema: stream.NewJoinSchema(q.Streams), joinOps: make(map[string][]int)}
	c.admitted = make([]atomic.Int64, c.schema.Len())
	for i := range q.Ops {
		st := &opState{op: q.Ops[i], span: q.WindowSeconds, slot: c.schema.Slot(q.Ops[i].Stream)}
		for s := 0; s < shards; s++ {
			st.shards = append(st.shards, &opShard{window: stream.NewWindow(q.WindowSeconds)})
		}
		if cfg.WALDir != "" && st.op.Kind == query.Join {
			st.seen = make(map[stream.TupleID]stream.Time)
			st.seenPruneAt = seenPruneMin
		}
		c.ops = append(c.ops, st)
		if q.Ops[i].Kind == query.Join {
			c.joinOps[q.Ops[i].Stream] = append(c.joinOps[q.Ops[i].Stream], i)
		}
	}
	return c, nil
}

// JoinOpsFor returns the indices of the join operators over the named
// stream (nil when none) — the operator set a WAL record for one of that
// stream's batches must target on replay.
func (c *NodeCore) JoinOpsFor(name string) []int { return c.joinOps[name] }

// Schema returns the query's join schema (decoders build result tuples in
// its blocks).
func (c *NodeCore) Schema() *stream.JoinSchema { return c.schema }

// NumOps returns the operator count.
func (c *NodeCore) NumOps() int { return len(c.ops) }

// Shards returns the number of hash partitions operator op's window is
// split into (see shardsFor).
func (c *NodeCore) Shards(op int) int { return len(c.ops[op].shards) }

// Config returns the normalized configuration.
func (c *NodeCore) Config() Config { return c.cfg }

// Insert bulk-inserts b into operator op's window — the worker-side insert
// entry point (the leader has already resolved which operators host b's
// stream on this node).
func (c *NodeCore) Insert(op int, b *stream.Batch) error {
	if op < 0 || op >= len(c.ops) {
		return fmt.Errorf("%w: insert op %d", runtime.ErrUnknownOp, op)
	}
	if c.ops[op].op.Kind != query.Join {
		return fmt.Errorf("%w: insert into non-join op %d", runtime.ErrUnknownOp, op)
	}
	sc := getScratch()
	c.ops[op].insertBatch(b, sc, false)
	putScratch(sc)
	return nil
}

// runStage executes one pipeline stage of operator op over partials and
// returns the surviving/extended partials. Ownership of the input slice and
// its tuples transfers to the call: consumed tuples are released, and for
// join stages the input slice itself is recycled (select stages filter in
// place and return the input slice). A join stage is one probe-then-build
// pass: a count pass over each shard's group of keys sizes one block for all
// of its extensions, and a fill pass writes each probe's matches from their
// window records straight into their rows (Block.AppendJoin), in the
// partials' order, oldest first, each probe's cut to its MaxFanout oldest;
// partials that pass through stay in the block they came in.
// Observed-selectivity counters are updated as a side effect. The router never sends a message to a stage
// that would pass all of it through (see passesThrough); direct callers of
// ProcessStage may.
func (c *NodeCore) runStage(op int, partials []*stream.Joined) []*stream.Joined {
	st := c.ops[op]
	var out []*stream.Joined
	switch st.op.Kind {
	case query.Select:
		threshold := st.op.Sel * c.cfg.SelectThresholdScale
		ownIn, ownOut := 0, 0
		// Filter in place: the write index never passes the read index.
		out = partials[:0]
		for _, p := range partials {
			v, ok := p.Val(st.slot, 0)
			if !ok {
				// Pass-through: the predicate applies to another
				// stream's tuples.
				out = append(out, p)
				continue
			}
			ownIn++
			if v < threshold {
				out = append(out, p)
				ownOut++
			} else {
				p.Release()
			}
		}
		// What the filter dropped is still referenced past len(out).
		clear(partials[len(out):])
		// Selections report the pass fraction over their own stream's
		// tuples only; pass-throughs would dilute the signal the
		// classifier needs.
		st.in.Add(int64(ownIn))
		st.out.Add(int64(ownOut))
	case query.Join:
		sc := getScratch()
		out, sc.spare = sc.spare[:0], nil
		if cap(out) == 0 {
			out = getPartials() // a scratch fresh from the pool
		}
		// Split the batch: partials already carrying this operator's
		// stream pass through; the rest probe its window.
		sc.probe = sc.probe[:0]
		for i := range partials {
			if partials[i].Has(st.slot) {
				// Probing the operator of the batch's own stream:
				// trivially satisfied.
				out = append(out, partials[i])
				continue
			}
			sc.probe = append(sc.probe, int32(i))
		}
		var pairs, hits int64
		if np := len(sc.probe); np > 0 {
			// Vectorized probe: read the whole key set up front, group
			// probes by destination shard, and take each shard lock once
			// per batch for the count pass — expiring the shard against
			// the operator-wide high-water timestamp, then counting the
			// shard's keys as one group and saving each key's newest match.
			// (Per-shard windows only see their own inserts, so without
			// the expire a cold shard would answer probes with tuples far
			// older than the span.)
			nShards := len(st.shards)
			mask := uint64(nShards - 1)
			sc.shardOf = grow32(sc.shardOf, np)
			sc.keys = slices.Grow(sc.keys[:0], 2*np)[:2*np]
			keys, grouped := sc.keys[:np], sc.keys[np:]
			for k, pi := range sc.probe {
				keys[k] = partials[pi].Key()
				sc.shardOf[k] = int32(uint64(keys[k]) & mask)
			}
			sc.group(np, nShards)
			for oi, k := range sc.order[:np] {
				grouped[oi] = keys[k]
			}
			sc.gcount = grow32(sc.gcount, np)
			sc.heads = slices.Grow(sc.heads[:0], np)[:np]
			sc.walk = slices.Grow(sc.walk[:0], np)[:np]
			cutoff := st.cutoff()
			var delta int64
			// The count pass sizes the stage's whole output before a row
			// of it is written: each probe keeps what MaxFanout lets
			// through, and one block takes it all.
			rows, nvals := 0, 0
			for si := 0; si < nShards; si++ {
				lo, hi := sc.starts[si], sc.starts[si+1]
				if lo == hi {
					continue
				}
				sh := st.shards[si]
				sh.mu.Lock()
				before := sh.window.Len()
				sh.window.ExpireBefore(cutoff)
				delta += int64(sh.window.Len() - before)
				sh.window.CountGroupMatches(grouped[lo:hi], sc.gcount[lo:hi], sc.heads[lo:hi], sc.walk[lo:hi])
				width := sh.window.Width()
				sh.mu.Unlock()
				for oi := lo; oi < hi; oi++ {
					n := int(sc.gcount[oi])
					hits += int64(n)
					n = c.keep(n)
					rows += n
					nvals += n * (partials[sc.probe[sc.order[oi]]].NumVals() + width)
				}
			}
			if delta != 0 {
				st.winLen.Add(delta)
			}
			pairs = st.winLen.Load() * int64(np)
			// The fill pass takes the lock of each shard with a match once
			// more and writes the group's rows straight from the shard's
			// window into the block (one hold in all at one shard, where
			// the group is in the partials' order already); the rows then
			// leave in the partials' order. With no match at all there is
			// no block, and no lock is taken again.
			if rows > 0 {
				blk := c.schema.AcquireBlock(rows, nvals)
				sc.mcount = grow32(sc.mcount, np)
				sc.mstart = grow32(sc.mstart, np)
				clear(sc.mcount)
				at := int32(0)
				for si := 0; si < nShards; si++ {
					lo, hi := sc.starts[si], sc.starts[si+1]
					if !slices.ContainsFunc(sc.gcount[lo:hi], func(n int32) bool { return n > 0 }) {
						continue
					}
					sh := st.shards[si]
					sh.mu.Lock()
					for oi := lo; oi < hi; oi++ {
						k, n := sc.order[oi], int(sc.gcount[oi])
						if n > 0 {
							n = blk.AppendJoin(partials[sc.probe[k]], st.slot, sh.window, sc.heads[oi], n, c.keep(n))
						}
						sc.mcount[k], sc.mstart[k] = int32(n), at
						at += int32(n)
					}
					sh.mu.Unlock()
				}
				// Every walk may have fallen below a head that moved since the
				// count: then no row holds the block, and it goes back here.
				blk.Discard()
				out = slices.Grow(out, int(at))
				for k, n := range sc.mcount[:np] {
					if n > 0 {
						out = blk.AppendRows(out, int(sc.mstart[k]), int(n))
					}
				}
			}
			// Consumed partials go back to their blocks.
			for _, pi := range sc.probe {
				partials[pi].Release()
			}
		}
		// The join produced a fresh slice; the inbound one, cleared as
		// putPartials would, is the next stage's.
		clear(partials)
		sc.spare = partials[:0]
		putScratch(sc)
		// Joins report the per-pair match probability (hits over pairs
		// examined) rather than raw fanout, so observed selectivities
		// stay in [0,1] and remain comparable with the optimizer's
		// estimates.
		st.in.Add(pairs)
		st.out.Add(hits)
	}
	return out
}

// keep is how many of a probe's n matches a join stage emits: all of them,
// or the oldest MaxFanout.
func (c *NodeCore) keep(n int) int {
	if c.cfg.MaxFanout > 0 && n > c.cfg.MaxFanout {
		return c.cfg.MaxFanout
	}
	return n
}

// passesThrough reports whether operator op's stage hands a row with p's
// parts back unchanged, counting nothing: a select over a stream p lacks, or
// a join over one p already carries. Every row of one message has the same
// parts, so one row decides for the whole message.
func (c *NodeCore) passesThrough(op int, p *stream.Joined) bool {
	st := c.ops[op]
	return p.Has(st.slot) == (st.op.Kind == query.Join)
}

// ProcessStage is the bounds-checked exported form of runStage for workers
// deserializing operator indices off the wire.
func (c *NodeCore) ProcessStage(op int, partials []*stream.Joined) ([]*stream.Joined, error) {
	if op < 0 || op >= len(c.ops) {
		return nil, fmt.Errorf("%w: stage op %d", runtime.ErrUnknownOp, op)
	}
	return c.runStage(op, partials), nil
}

// SelCounters returns operator op's cumulative observed-selectivity
// denominator/numerator (pairs examined and matches for joins, tuples
// examined and passed for selections). A worker differences them around a
// stage to report that stage's own counts.
func (c *NodeCore) SelCounters(op int) (in, out int64) {
	return c.ops[op].in.Load(), c.ops[op].out.Load()
}

// AddSelCounters adds a stage's counts, run elsewhere, to operator op's
// counters: the router's NodeCore keeps the only counters of a run, and a
// remote stage reports its counts here.
func (c *NodeCore) AddSelCounters(op int, in, out int64) {
	c.ops[op].in.Add(in)
	c.ops[op].out.Add(out)
}

// ObservedSels returns every operator's observed selectivity.
func (c *NodeCore) ObservedSels() []float64 {
	sels := make([]float64, len(c.ops))
	for i, st := range c.ops {
		sels[i] = observedSel(st.op.Sel, st.in.Load(), st.out.Load())
	}
	return sels
}

// ObservedRates returns the tuples admitted so far per stream, for every
// stream that has admitted any.
func (c *NodeCore) ObservedRates() map[string]float64 {
	rates := make(map[string]float64, len(c.admitted))
	for slot := range c.admitted {
		if n := c.admitted[slot].Load(); n > 0 {
			rates[c.schema.Stream(slot)] = float64(n)
		}
	}
	return rates
}

// SnapshotOp snapshots operator op's current window contents into a fresh
// batch (nil for non-join operators, which carry no state). The first
// non-empty shard fixes the payload width, and with it the batch is sized
// once for the operator's whole buffered count, so the shards' bulk column
// copies land in place instead of regrowing the columns as they go.
func (c *NodeCore) SnapshotOp(op int) *stream.Batch {
	st := c.ops[op]
	if st.op.Kind != query.Join {
		return nil
	}
	b := stream.NewBatch(st.op.Stream)
	for _, sh := range st.shards {
		sh.mu.Lock()
		if n := sh.window.Len(); n > 0 && b.Len() == 0 {
			// winLen trails the shards by whatever inserts are in flight;
			// it is a sizing hint, floored so it can never be negative.
			b = stream.NewSizedBatch(st.op.Stream, sh.window.Width(), max(int(st.winLen.Load()), n))
		}
		sh.window.Snapshot(b)
		sh.mu.Unlock()
	}
	return b
}

// ClearOp discards operator op's window state (LoseState recovery). In
// durable mode the seen set empties with the window, keeping its storage for
// the entries to come: RestoreOp repopulates it from the snapshot, so
// replayed records dedup against the restored state rather than the lost
// one.
func (c *NodeCore) ClearOp(op int) {
	st := c.ops[op]
	total := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		total += sh.window.Len()
		sh.window.Reset()
		sh.mu.Unlock()
	}
	st.winLen.Add(int64(-total))
	//rldlint:allow guardedby -- nil-ness is a construction-time mode flag (durable vs not), never written after; only the map contents need seenMu
	if st.seen != nil {
		st.seenMu.Lock()
		clear(st.seen)
		st.seenPruneAt = seenPruneMin
		st.seenMu.Unlock()
	}
}

// RestoreOp replaces operator op's window state with the given snapshot
// (nil clears it). It clears the operator, records the snapshot's rows as
// seen in durable mode (see recordRestored, so WAL replay dedups against
// them), lifts the high-water timestamp to the snapshot's, and then loads
// each shard with its rows from the first one whose timestamp is at or
// above the operator's cutoff, maxTs − span.
//
// That is exact: the cutoff is the one the next probe of any shard expires
// to, and expiry is a prefix scan, so into an empty shard "load from the
// first row at or above the cutoff" and "load every row, then expire to the
// cutoff" leave the same rows. Every probe therefore sees the same matches,
// and with one shard the same buffered count, as a restore that loads the
// whole snapshot; the skipped rows would only have been written, counted
// and expired again.
func (c *NodeCore) RestoreOp(op int, snap *stream.Batch) {
	c.ClearOp(op)
	if snap == nil {
		return
	}
	sc := getScratch()
	c.ops[op].insertBatch(snap, sc, true)
	putScratch(sc)
}

// NewPartials returns an empty pooled partials slice (wire decoders fill it).
func (c *NodeCore) NewPartials() []*stream.Joined { return getPartials() }

// ReleasePartials releases every tuple in ps and recycles the slice —
// the counterpart of NewPartials for callers that serialized (rather than
// forwarded) the stage output.
func (c *NodeCore) ReleasePartials(ps []*stream.Joined) {
	for _, p := range ps {
		p.Release()
	}
	putPartials(ps)
}
