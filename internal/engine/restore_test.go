package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rld/internal/query"
	"rld/internal/stream"
)

// restoreRows returns a batch of n S2 rows of the given payload width whose
// timestamps run from t0 to t1, each jittered by up to three steps either
// way, so a few are out of order; keys are drawn from [0, 64), so probes find
// several matches, and sequence numbers count from seq0.
func restoreRows(rng *rand.Rand, width, n int, t0, t1 float64, seq0 uint64) *stream.Batch {
	b := stream.NewSizedBatch("S2", width, n)
	step := (t1 - t0) / float64(max(n, 1))
	for i := 0; i < n; i++ {
		ts := stream.Time(max(0, t0+step*(float64(i)+6*rng.Float64()-3)))
		row := b.AppendRow(seq0+uint64(i), ts, rng.Int63n(64), ts+0.5)
		for v := range row {
			row[v] = rng.NormFloat64()
		}
	}
	return b
}

// TestCheckpointRestoreLoadsOnlyLiveRows: RestoreOp loads each shard only
// from its first row at or above the operator's cutoff. Against a reference
// core restored the way RestoreOp did before — every snapshot row inserted,
// each shard expiring to its own newest row — at Workers 1 and 4 (one shard
// and sixteen), durable mode off and on, over random snapshots (payload
// widths 0–2, a few rows out of order, empty ones among them) and random
// high-water marks: every probe's matches and SelCounters delta are equal,
// whether or not live inserts come between the restore and the probe, and
// so is a SnapshotOp taken once every shard has been probed. In durable
// mode a skipped row inserted again is still a duplicate: both cores drop
// it, and with no prune of the seen set in between (under 1 024 rows) it
// adds no row at all. Probes expire only the shards they reach, so the
// first probe reaches all sixteen; until then the reference's untouched
// shards count rows the restored ones never loaded.
func TestCheckpointRestoreLoadsOnlyLiveRows(t *testing.T) {
	const op, span = 1, 10.0 // op 1 joins S2
	for _, workers := range []int{1, 4} {
		for _, durable := range []bool{false, true} {
			skipped := 0
			for trial := int64(0); trial < 30; trial++ {
				where := fmt.Sprintf("Workers %d, durable %v, trial %d", workers, durable, trial)
				skipped += checkRestoreTrial(t, workers, durable, trial, op, span, where)
			}
			if skipped == 0 {
				t.Fatalf("Workers %d, durable %v: no trial left a snapshot row below the cutoff", workers, durable)
			}
		}
	}
}

// checkRestoreTrial runs one trial of TestCheckpointRestoreLoadsOnlyLiveRows
// and returns how many snapshot rows the restore left out.
func checkRestoreTrial(t *testing.T, workers int, durable bool, trial int64, op int, span float64, where string) int {
	t.Helper()
	rng := rand.New(rand.NewSource(trial))
	q := query.NewNWayJoin("RL", 3, 100)
	q.WindowSeconds = span
	cfg := DefaultConfig()
	cfg.Workers, cfg.MaxFanout = workers, 0
	if durable {
		cfg.WALDir = t.TempDir()
	}
	newCore := func() *NodeCore {
		c, err := NewNodeCore(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	core, ref := newCore(), newCore()
	insert := func(b *stream.Batch) {
		for _, c := range []*NodeCore{core, ref} {
			if err := c.Insert(op, b); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The snapshot covers [lo, hi]; the rows ingested before the crash lift
	// the high-water mark anywhere from below hi to past every row of it.
	width := rng.Intn(3)
	lo := 2*span + rng.Float64()*span
	hi := lo + span*(0.2+1.3*rng.Float64())
	hwm := hi + span*(1.6*rng.Float64()-0.4)
	pre := restoreRows(rng, width, 1+rng.Intn(200), hwm-span, hwm, 1<<20)
	for i := range pre.Ts {
		pre.Ts[i] = min(pre.Ts[i], stream.Time(hwm))
	}
	pre.Ts[pre.Len()-1] = stream.Time(hwm)
	insert(pre)
	var snap *stream.Batch
	if rng.Intn(10) > 0 {
		snap = restoreRows(rng, width, rng.Intn(1500), lo, hi, 0)
		// Some rows sit exactly on the cutoff when the high-water mark is
		// the pre-crash rows' newest: at it is live, below it is not.
		for range min(3, snap.Len()) {
			snap.Ts[rng.Intn(snap.Len())] = stream.Time(hwm - span)
		}
	}

	core.RestoreOp(op, snap)
	ref.ClearOp(op)
	if snap != nil {
		sc := getScratch()
		ref.ops[op].insertBatch(snap, sc, false)
		putScratch(sc)
	}
	left := int(ref.ops[op].winLen.Load() - core.ops[op].winLen.Load())
	if left < 0 {
		t.Fatalf("%s: the restore loaded %d rows more than the full load", where, -left)
	}

	seq := uint64(1 << 30)
	cutoff := core.ops[op].cutoff()
	if durable && snap != nil && snap.Len() > 0 && snap.Ts[0] < cutoff {
		// Every row before the first one at or above the cutoff was
		// skipped, whatever its shard.
		n := 1
		for n < snap.Len() && snap.Ts[n] < cutoff {
			n++
		}
		i := rng.Intn(n)
		again := stream.NewSizedBatch("S2", width, 1)
		copy(again.AppendRow(snap.Seq[i], snap.Ts[i], snap.Key[i], snap.Arr[i]), snap.ValsAt(i))
		before, refBefore := core.ops[op].winLen.Load(), ref.ops[op].winLen.Load()
		insert(again)
		added, refAdded := core.ops[op].winLen.Load()-before, ref.ops[op].winLen.Load()-refBefore
		if added != refAdded || (snap.Len() < 1024 && added != 0) {
			t.Fatalf("%s: re-inserting skipped row %d added %d rows, the reference %d", where, i, added, refAdded)
		}
	}

	// Probes: the first reaches every shard; later ones draw a few keys,
	// with live inserts between some of them.
	probe := func(round int, keys []int64) {
		t.Helper()
		var got [2][]string
		var sel [2][2]int64
		for ci, c := range []*NodeCore{core, ref} {
			blk := c.Schema().AcquireBlock(len(keys), 0)
			ps := c.NewPartials()
			for i, k := range keys {
				ps = append(ps, blk.Seed(0, uint64(i), stream.Time(hwm), k, stream.Time(hwm), nil))
			}
			in0, out0 := c.SelCounters(op)
			out, err := c.ProcessStage(op, ps)
			if err != nil {
				t.Fatal(err)
			}
			in1, out1 := c.SelCounters(op)
			sel[ci] = [2]int64{in1 - in0, out1 - out0}
			for _, j := range out {
				got[ci] = append(got[ci], joinedFields(j, 3))
			}
			c.ReleasePartials(out)
		}
		if !slices.Equal(got[0], got[1]) {
			t.Fatalf("%s, probe %d: %d matches, the reference %d", where, round, len(got[0]), len(got[1]))
		}
		if sel[0] != sel[1] {
			t.Fatalf("%s, probe %d: SelCounters delta (pairs, matches) %v, the reference %v", where, round, sel[0], sel[1])
		}
	}
	allShards := func() []int64 {
		keys := make([]int64, 0, numShards+8)
		for k := range int64(numShards) {
			keys = append(keys, k+16*rng.Int63n(4))
		}
		for range 8 {
			keys = append(keys, rng.Int63n(64))
		}
		return keys
	}
	if rng.Intn(2) == 0 {
		insert(restoreRows(rng, width, 1+rng.Intn(40), hwm, hwm+span/4, seq))
		seq += 1 << 10
	}
	probe(0, allShards())
	ts := hwm + span/4
	for round := 1; round <= 4; round++ {
		if rng.Intn(2) == 0 {
			insert(restoreRows(rng, width, 1+rng.Intn(40), ts, ts+span/8, seq))
			seq += 1 << 10
			ts += span / 8
		}
		keys := make([]int64, 1+rng.Intn(6))
		for i := range keys {
			keys[i] = rng.Int63n(64)
		}
		probe(round, keys)
	}
	probe(5, allShards())

	got, want := core.SnapshotOp(op), ref.SnapshotOp(op)
	if !slices.Equal(got.Seq, want.Seq) || !slices.Equal(got.Ts, want.Ts) || !slices.Equal(got.Key, want.Key) ||
		!slices.Equal(got.Arr, want.Arr) || !slices.Equal(got.Vals, want.Vals) {
		t.Fatalf("%s: a snapshot after every shard was probed holds %d rows, the reference's %d", where, got.Len(), want.Len())
	}
	return left
}
