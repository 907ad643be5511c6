package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"rld"
	"rld/internal/stream"
)

// checkBatches is the length of the checked prefix: nine tenths of one
// window span, so nothing expires and the reference needs no notion of
// time, and long enough that the sparse ingest feed produces a few hundred
// results.
func (s *spec) checkBatches() int { return int(0.9 * s.span * s.batchesPerSecond()) }

// refJoin is the harness's own equi-join: per stream, every tuple seen so
// far by key. It shares no code with the engine's windows.
type refJoin struct {
	q        *rld.Query
	joined   []bool               // slot has a join operator, i.e. a window
	selSlot  int                  // slot the selection filters, -1 if none
	selBelow float64              // the selection passes payloads below this
	rows     []map[int64][]uint64 // slot → key → seqs, arrival order
}

func newRefJoin(q *rld.Query) *refJoin {
	slotOf := map[string]int{}
	for i, s := range q.Streams {
		slotOf[s] = i
	}
	r := &refJoin{q: q, joined: make([]bool, len(q.Streams)), selSlot: -1, rows: make([]map[int64][]uint64, len(q.Streams))}
	for _, op := range q.Ops {
		slot := slotOf[op.Stream]
		if op.Kind == rld.OpJoin {
			r.joined[slot] = true
			r.rows[slot] = map[int64][]uint64{}
		} else {
			r.selSlot = slot
			r.selBelow = op.Sel * rld.DefaultEngineConfig().SelectThresholdScale
		}
	}
	return r
}

// ingest inserts b into its stream's window, then joins each of its tuples
// with every window of the other streams, calling emit once per result with
// the result's tuple IDs in slot order.
func (r *refJoin) ingest(b *stream.Batch, slot int, emit func(ids []stream.TupleID)) {
	if r.joined[slot] {
		for i, k := range b.Key {
			r.rows[slot][k] = append(r.rows[slot][k], b.Seq[i])
		}
	}
	ids := make([]stream.TupleID, 0, len(r.q.Streams))
	for i, k := range b.Key {
		if slot == r.selSlot && b.ValsAt(i)[0] >= r.selBelow {
			continue
		}
		var expand func(s int)
		expand = func(s int) {
			if s == len(r.q.Streams) {
				emit(ids)
				return
			}
			switch {
			case s == slot:
				ids = append(ids, stream.MakeTupleID(s, b.Seq[i]))
				expand(s + 1)
				ids = ids[:len(ids)-1]
			case r.joined[s]:
				for _, seq := range r.rows[s][k] {
					ids = append(ids, stream.MakeTupleID(s, seq))
					expand(s + 1)
					ids = ids[:len(ids)-1]
				}
			default:
				expand(s + 1) // no window on this stream: it never joins in
			}
		}
		expand(0)
	}
}

// resultSet is an order-free summary of a set of join results: how many,
// and a hash of their sorted identities.
type resultSet struct {
	hashes []uint64
}

func (rs *resultSet) add(ids []stream.TupleID) {
	h := fnv.New64a()
	for _, id := range ids {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
	}
	rs.hashes = append(rs.hashes, h.Sum64())
}

func (rs *resultSet) digest() (count int, sum uint64) {
	sort.Slice(rs.hashes, func(i, j int) bool { return rs.hashes[i] < rs.hashes[j] })
	h := fnv.New64a()
	for _, x := range rs.hashes {
		h.Write(binary.LittleEndian.AppendUint64(nil, x))
	}
	return len(rs.hashes), h.Sum64()
}

// check runs the first checkBatches() batches of the feed through a pipeline
// of the workload's own substrate at depth 1 with fanout uncapped, and
// compares the emitted results — count and identities, exactly — with the
// reference join.
func (r *run) check() error {
	var want resultSet
	ref := newRefJoin(r.feed.query)
	n := r.spec.checkBatches()
	for g := 0; g < n; g++ {
		ref.ingest(r.feed.cycle[g], r.feed.slot[g], want.add)
	}

	pp, err := r.open(1, r.spec.steadyFaults(), 0)
	if err != nil {
		return err
	}
	var got resultSet
	pp.sink.onTuple = func(j *rld.Joined) { got.add(j.TupleIDs(nil)) }
	for g := 0; g < n; g++ {
		pp.offer()
	}
	pp.quiesce()
	pp.close() // waits for the consumer, so got is complete

	wc, wh := want.digest()
	gc, gh := got.digest()
	if wc != gc || wh != gh {
		return fmt.Errorf("%d results (hash %016x), reference join has %d (hash %016x)", gc, gh, wc, wh)
	}
	if wc == 0 {
		return fmt.Errorf("the checked prefix produced no results")
	}
	return nil
}
