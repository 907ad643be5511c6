//go:build !race

package runtime_test

import (
	"testing"

	"rld/internal/cluster"
	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	rt "rld/internal/runtime"
	"rld/internal/sim"
	"rld/internal/stream"
)

// TestSourceFeedAllocs pins SourceFeed's batch recycling: once the pool is
// warm, Next hands back the batch it returned last time and fills the next
// one in place, so a steady-state call allocates nothing. A path that drops
// a batch instead of releasing it shows here as one fresh batch's columns
// per call. (The race detector changes allocation behaviour; the file is
// excluded under -race.)
func TestSourceFeedAllocs(t *testing.T) {
	mk := func(name string, seed int64) *gen.Source {
		return gen.NewSource(name, gen.ConstProfile(50),
			gen.KeyDist{Target: gen.ConstProfile(0.1), Cold: 128},
			gen.Uniform{A: 0, B: 100}, seed)
	}
	f := rt.NewSourceFeed([]*gen.Source{mk("A", 1), mk("B", 2)}, 100, 1e9)
	for i := 0; i < 100; i++ {
		if f.Next() == nil {
			t.Fatal("feed exhausted during warm-up")
		}
	}
	if n := testing.AllocsPerRun(1000, func() { f.Next() }); n > 1 {
		t.Fatalf("SourceFeed.Next made %v allocations per call, want <= 1", n)
	}
}

// TestSimAdmitAllocs bounds what the simulator allocates per admitted batch,
// service and completion included. Classification reads the monitor's
// published snapshot in place; a copy per batch shows here as three more.
func TestSimAdmitAllocs(t *testing.T) {
	q := query.NewNWayJoin("A", 2, 10)
	sc := &sim.Scenario{Query: q, Cluster: cluster.NewHomogeneous(2, 1e6), BatchSize: 10}
	pol := &rt.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	ss, err := sim.OpenSession(sc, pol, rt.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := stream.NewSizedBatch("S1", 1, 10)
	for j := 0; j < 10; j++ {
		b.AppendRow(uint64(j), 0, int64(j), 0)
	}
	ts := 0.0
	admit := func() {
		ts += 0.01
		for i := range b.Ts {
			b.Ts[i] = stream.Time(ts)
		}
		if err := ss.TryIngest(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		admit()
	}
	if n := testing.AllocsPerRun(2000, admit); n > 8 {
		t.Fatalf("sim admission made %v allocations per batch, want <= 8", n)
	}
}
