package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rld/internal/query"
	"rld/internal/stream"
)

// TestSnapshotClearRestoreRoundTrip is the checkpoint path end to end on a
// sharded operator: SnapshotOp gathers four shard windows (rings grown and
// wrapped, keys positive and negative) into one batch sized once, ClearOp
// empties them, and RestoreOp re-inserts the snapshot through the shard
// grouping — after which every probe must return exactly what it returned
// before, in the same order, and a second snapshot must equal the first.
func TestSnapshotClearRestoreRoundTrip(t *testing.T) {
	q := query.NewNWayJoin("RT", 2, 100) // op 0 selects on S1, op 1 joins S2
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Shards = 4
	core, err := NewNodeCore(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const op, rows, batch, keys = 1, 6000, 50, 1500
	rng := rand.New(rand.NewSource(5))
	step := 3 * q.WindowSeconds / rows // three spans of data: two thirds of it expires
	for i := 0; i < rows; i += batch {
		b := stream.NewSizedBatch("S2", 2, batch)
		for j := i; j < i+batch; j++ {
			ts := stream.Time(float64(j) * step)
			row := b.AppendRow(uint64(j), ts, rng.Int63n(keys)-keys/2, ts)
			row[0], row[1] = float64(j), rng.Float64()
		}
		if err := core.Insert(op, b); err != nil {
			t.Fatal(err)
		}
	}
	// probe joins one S1 tuple per key against op 1 and lists every match.
	probe := func() []string {
		ps := core.NewPartials()
		for k := int64(-keys / 2); k < keys/2; k++ {
			j := core.Schema().Acquire()
			j.SetPart(0, uint64(k+keys), stream.Time(3*q.WindowSeconds), k, 0, []float64{1})
			ps = append(ps, j)
		}
		out, err := core.ProcessStage(op, ps)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, j := range out {
			p, _ := j.Part(1)
			got = append(got, fmt.Sprint(j.Key(), p.Seq, p.Ts, p.Arrival, p.Vals))
		}
		core.ReleasePartials(out)
		return got
	}
	before := probe()
	live := int(core.ops[op].winLen.Load())
	if want := rows / 3; live < want-batch || live > want+batch || len(before) != live {
		t.Fatalf("%d buffered rows and %d matches, want both about %d", live, len(before), want)
	}

	snap := core.SnapshotOp(op)
	if snap.Len() != live || snap.Width() != 2 {
		t.Fatalf("snapshot holds %d rows of width %d, want %d of width 2", snap.Len(), snap.Width(), live)
	}
	if cap(snap.Seq) != live || cap(snap.Vals) != 2*live {
		t.Fatalf("snapshot columns have capacity %d/%d for %d rows: not sized once from the buffered count",
			cap(snap.Seq), cap(snap.Vals), live)
	}
	core.ClearOp(op)
	if got := probe(); len(got) != 0 || core.ops[op].winLen.Load() != 0 {
		t.Fatalf("after ClearOp: %d matches, %d buffered rows", len(got), core.ops[op].winLen.Load())
	}
	core.RestoreOp(op, snap)
	if after := probe(); !slices.Equal(after, before) {
		t.Fatalf("probes after restore differ: %d matches, were %d", len(after), len(before))
	}
	again := core.SnapshotOp(op)
	if !slices.Equal(again.Seq, snap.Seq) || !slices.Equal(again.Ts, snap.Ts) || !slices.Equal(again.Key, snap.Key) ||
		!slices.Equal(again.Arr, snap.Arr) || !slices.Equal(again.Vals, snap.Vals) {
		t.Fatal("a snapshot of the restored operator differs from the snapshot it was restored from")
	}
	if empty := core.SnapshotOp(0); empty != nil {
		t.Fatalf("the selection carries no state, yet SnapshotOp returned %d rows", empty.Len())
	}
}
