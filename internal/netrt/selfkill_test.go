package netrt

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rld/internal/engine"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
)

// workerPid returns the pid of the live worker process serving node, from
// the registry LiveWorkers reads.
func workerPid(t *testing.T, node int) int {
	t.Helper()
	procMu.Lock()
	defer procMu.Unlock()
	for pid, desc := range liveProcs {
		if strings.HasPrefix(desc, fmt.Sprintf("node %d ", node)) {
			return pid
		}
	}
	t.Fatalf("no live worker for node %d", node)
	return 0
}

// TestChaosNetExactlyOnceUnpromptedSIGKILL is TestChaosNetExactlyOnceSIGKILL
// with the one fault the leader does not inject: the join worker is
// SIGKILLed from outside, and no one calls Crash. The leader has to notice
// by itself — the reaped exit, or the first RPC to fail — mark the node
// down in Checkpoint mode, and park its probes; Recover then has to rebuild
// the respawn, outage inserts included, to exactly the fault-free run's
// results.
func TestChaosNetExactlyOnceUnpromptedSIGKILL(t *testing.T) {
	base, baseSet := runNetExactlyOnce(t, t.TempDir(), false)
	if base.Produced == 0 {
		t.Fatal("fault-free run produced nothing")
	}

	// The phases of runNetExactlyOnce, with the kill in place of Crash.
	q := query.NewNWayJoin("NETQ", 2, 1000)
	q.Ops[0].Sel = 0.9
	q.Ops[1].Sel = 0.9
	c, err := NewCluster(q, physical.Assignment{0, 1}, 2, ClusterConfig{
		Engine: engine.Config{WALDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetChooser(plan01)
	var mu sync.Mutex
	gotSet := make(map[string]int)
	c.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for _, j := range tuples {
			gotSet[fmt.Sprint(j.TupleIDs(nil))]++
		}
	})
	c.Start()
	var s1, s2 uint64
	ts := 0.0
	feed := func(streamName string, seq *uint64, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ts++
			if err := c.Ingest(testBatch(streamName, seq, ts, 10)); err != nil {
				t.Fatal(err)
			}
			c.Drain()
		}
	}
	feed("S2", &s2, 6)
	feed("S1", &s1, 6)
	c.Checkpoint()
	feed("S2", &s2, 4)

	if err := syscall.Kill(workerPid(t, 1), syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !runtime.NodeDown(c.NodeLoads()[1]) {
		if time.Now().After(deadline) {
			t.Fatal("the leader never noticed its worker die")
		}
		time.Sleep(time.Millisecond)
	}

	feed("S2", &s2, 2) // outage inserts: in the router's log only, replayed at recovery
	feed("S1", &s1, 2) // outage probes: park, replay after recovery
	if err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	feed("S2", &s2, 2)
	feed("S1", &s1, 4)
	got := c.Stop()

	if got.Crashes != 1 {
		t.Fatalf("crashes=%d: the detected outage must be booked like an injected one", got.Crashes)
	}
	if got.Restores == 0 {
		t.Fatal("recovery restored no operator from the checkpoint")
	}
	if got.TuplesLost != 0 {
		t.Fatalf("exactly-once recovery lost %v tuples", got.TuplesLost)
	}
	if got.Produced != base.Produced || len(gotSet) != len(baseSet) {
		t.Fatalf("produced %v (%d distinct) through an unprompted SIGKILL, fault-free %v (%d distinct)",
			got.Produced, len(gotSet), base.Produced, len(baseSet))
	}
	for k, n := range baseSet {
		if gotSet[k] != n {
			t.Fatalf("result %s produced %d times through an unprompted SIGKILL, fault-free %d", k, gotSet[k], n)
		}
	}
	if live := len(LiveWorkers()); live != 0 {
		t.Fatalf("%d workers outlived the run", live)
	}
}

// TestDetectedOutageIsBooked: a worker SIGKILLed from outside, with no Crash
// anywhere, is booked by the router the way a scripted outage is — one
// crash, one EventCrash at the virtual time it was detected, down time until
// the session's Recover and one EventRecovery there — in Stats mid-outage
// and in the report.
func TestDetectedOutageIsBooked(t *testing.T) {
	c, err := NewCluster(testQuery(), physical.Assignment{0, 1}, 2, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ses, err := engine.OpenSessionOn(c.Engine, "net", testPolicy(), runtime.SessionOptions{EventBuffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var seq uint64
	feed := func(from, to int) {
		t.Helper()
		for ts := from; ts <= to; ts++ {
			st := "S1"
			if ts%2 == 1 {
				st = "S2"
			}
			if err := ses.Ingest(ctx, testBatch(st, &seq, float64(ts), 10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(1, 20)
	if err := syscall.Kill(workerPid(t, 1), syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !runtime.NodeDown(c.NodeLoads()[1]) {
		if time.Now().After(deadline) {
			t.Fatal("the leader never noticed its worker die")
		}
		time.Sleep(time.Millisecond)
	}
	feed(21, 50)
	if st := ses.Stats(); st.Crashes != 1 || st.DownSeconds != 30 {
		t.Fatalf("mid-outage stats: crashes=%d down=%v, want 1 and 30", st.Crashes, st.DownSeconds)
	}
	if err := ses.Recover(1); err != nil {
		t.Fatal(err)
	}
	feed(51, 60)
	rep, err := ses.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 1 || rep.DownSeconds != 30 {
		t.Fatalf("report: crashes=%d down=%v, want 1 and 30", rep.Crashes, rep.DownSeconds)
	}
	var outage []runtime.Event
	for ev := range ses.Events() {
		if ev.Kind == runtime.EventCrash || ev.Kind == runtime.EventRecovery {
			outage = append(outage, ev)
		}
	}
	want := []runtime.Event{
		{Kind: runtime.EventCrash, T: 20, Node: 1, Op: -1},
		{Kind: runtime.EventRecovery, T: 50, Node: 1, Op: -1},
	}
	if !slices.Equal(outage, want) {
		t.Fatalf("outage events %+v, want %+v", outage, want)
	}
}
