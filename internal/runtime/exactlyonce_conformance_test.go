package runtime_test

// Exactly-once conformance at the session level: the durability contract is
// the router's, so it is one test over both live substrates — the same feed
// and the same scripted crash, whose outage straddles a checkpoint, under
// the configuration rld.WithExactlyOnce sets. Each substrate must reproduce
// its own fault-free result multiset exactly, and the two substrates'
// multisets must be the same multiset.

import (
	"context"
	"fmt"
	"testing"

	"rld/internal/chaos"
	"rld/internal/engine"
	"rld/internal/netrt"
	"rld/internal/query"
	rt "rld/internal/runtime"
	"rld/internal/stream"
)

// exactlyOnceFeed is one 10-tuple batch per virtual second, phased so that a
// probe parked behind the crashed join node replays against exactly the
// window its fault-free twin saw: from the crash until the parked probes have
// replayed, every S2 insert precedes every S1 probe. Keys cycle a small
// domain so probes find matches.
func exactlyOnceFeed() rt.Feed {
	var seqs [2]uint64
	var out []*stream.Batch
	ts := 0.0
	phase := func(slot, n int) {
		for ; n > 0; n-- {
			ts++
			b := stream.NewSizedBatch([]string{"S1", "S2"}[slot], 1, 10)
			for i := 0; i < 10; i++ {
				b.AppendRow(seqs[slot], stream.Time(ts), int64(i%8), stream.Time(ts))[0] = 50
				seqs[slot]++
			}
			out = append(out, b)
		}
	}
	phase(1, 6)  // t 1–6: warm the join window
	phase(0, 6)  // t 7–12: probes
	phase(1, 7)  // t 13–19: window growth on both sides of the t=15 checkpoint
	phase(1, 8)  // t 20–27: inserts into the outage — the log's alone on net
	phase(0, 13) // t 28–40: probes parked behind the dead node, across the t=30 checkpoint; the last brings it back
	phase(1, 6)  // t 41–46: growth again, across the t=45 checkpoint
	phase(0, 8)  // t 47–54: probes that need the whole window back
	return &rt.BatchSliceFeed{Batches: out}
}

// runExactlyOnceSession replays exactlyOnceFeed through a session opened by
// open and returns the report and the multiset of result identities, each
// result keyed by the TupleIDs of the inputs it joins.
func runExactlyOnceSession(t *testing.T, fp *chaos.FaultPlan, open func(*query.Query, rt.Policy, engine.Config, rt.SessionOptions) (rt.Session, error)) (*rt.Report, map[string]int) {
	t.Helper()
	// A window far past the feed's span: results depend on window content
	// alone, which is what recovery has to get right.
	q := query.NewNWayJoin("XONCE", 2, 1000)
	q.Ops[0].Sel, q.Ops[1].Sel = 0.9, 0.9
	pol := &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{0, 1}, Assign: []int{0, 1}}
	cfg := engine.DefaultConfig()
	cfg.MaxFanout = 0 // a clipped probe keeps whichever matches the window lists first
	cfg.WALDir = t.TempDir()
	s, err := open(q, pol, cfg, rt.SessionOptions{
		Faults: fp,
		// One batch in flight: every insert and every probe lands in feed
		// order, on either substrate.
		MaxPending:   1,
		ResultBuffer: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Replay(context.Background(), s, exactlyOnceFeed())
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]int)
	for rb := range s.Results() {
		for _, j := range rb.Tuples {
			set[fmt.Sprint(j.TupleIDs(nil))]++
		}
	}
	if st := s.Stats(); st.ResultsDropped != 0 {
		t.Fatalf("dropped %d result batches despite the buffer", st.ResultsDropped)
	}
	return rep, set
}

func TestSessionExactlyOnceConformance(t *testing.T) {
	substrates := []struct {
		name string
		open func(*query.Query, rt.Policy, engine.Config, rt.SessionOptions) (rt.Session, error)
	}{
		{"engine", func(q *query.Query, pol rt.Policy, cfg engine.Config, opts rt.SessionOptions) (rt.Session, error) {
			return engine.OpenSession(q, 2, pol, cfg, opts)
		}},
		{"net", func(q *query.Query, pol rt.Policy, cfg engine.Config, opts rt.SessionOptions) (rt.Session, error) {
			return netrt.OpenSession(q, 2, pol, cfg, opts, nil)
		}},
	}
	// Node 1 hosts the join. Checkpoints at t = 15, 30, 45; the outage
	// [20, 40) straddles the second.
	fp := &chaos.FaultPlan{
		Mode:            chaos.Checkpoint,
		CheckpointEvery: 15,
		Faults:          []chaos.Fault{{Kind: chaos.Crash, Node: 1, At: 20, Until: 40}},
	}
	sets := make(map[string]map[string]int)
	for _, sub := range substrates {
		base, baseSet := runExactlyOnceSession(t, nil, sub.open)
		if len(baseSet) == 0 || base.Substrate != sub.name {
			t.Fatalf("%s: fault-free run on %q produced %d distinct results", sub.name, base.Substrate, len(baseSet))
		}
		got, gotSet := runExactlyOnceSession(t, fp, sub.open)
		if got.Crashes != 1 || got.Restores == 0 {
			t.Errorf("%s: crashes=%d restores=%d, want 1 and at least 1", sub.name, got.Crashes, got.Restores)
		}
		if got.TuplesLost != 0 {
			t.Errorf("%s: exactly-once recovery lost %v tuples", sub.name, got.TuplesLost)
		}
		sameMultiset(t, sub.name+" through the crash", gotSet, sub.name+" fault-free", baseSet)
		sets[sub.name] = baseSet
	}
	sameMultiset(t, "net", sets["net"], "engine", sets["engine"])
}

// sameMultiset reports every way got differs from want.
func sameMultiset(t *testing.T, gotName string, got map[string]int, wantName string, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s produced %d distinct results, %s %d", gotName, len(got), wantName, len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("result %s: %s produced it %d times, %s %d", k, gotName, got[k], wantName, n)
			return
		}
	}
}
