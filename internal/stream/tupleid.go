package stream

import "math"

// TupleID is a tuple's stable identity across crashes and replays: the
// join-schema slot of its stream packed above the source-assigned sequence
// number. Sources stamp Seq at admission and it rides unchanged through
// batches, windows, WAL records, and join partials, so the same input
// tuple carries the same TupleID no matter how many times a recovery
// replays it — the key exactly-once deduplication matches on.
type TupleID uint64

// tupleIDSeqBits is how much of a TupleID the sequence number occupies;
// the slot (≤ 64 streams) lives above it.
const tupleIDSeqBits = 57

// MakeTupleID packs a schema slot (stream ID) and a source sequence
// number into one TupleID.
func MakeTupleID(slot int, seq uint64) TupleID {
	return TupleID(uint64(slot)<<tupleIDSeqBits | seq&(1<<tupleIDSeqBits-1))
}

// Slot returns the join-schema slot (stream ID) the tuple belongs to.
func (id TupleID) Slot() int { return int(uint64(id) >> tupleIDSeqBits) }

// Seq returns the source-assigned sequence number.
func (id TupleID) Seq() uint64 { return uint64(id) & (1<<tupleIDSeqBits - 1) }

// TupleIDs appends the TupleID of every populated slot to dst in slot
// order — the identity of a joined result is the set of input tuples it
// combines, so two results are duplicates exactly when their TupleIDs
// match. The exactly-once acceptance tests compare faulted and fault-free
// runs on these sets.
func (j *Joined) TupleIDs(dst []TupleID) []TupleID {
	for slot := range j.blk.schema.streams {
		if j.Has(slot) {
			dst = append(dst, MakeTupleID(slot, math.Float64bits(j.part(slot)[partSeq])))
		}
	}
	return dst
}
