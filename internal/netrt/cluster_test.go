package netrt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/engine"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
	"rld/internal/stream"
	"rld/internal/wire"
)

// plan01 is the chooser the bare-cluster tests run under: always plan {0, 1}.
var plan01 = engine.ChooserFunc(func(stats.Snapshot) query.Plan { return query.Plan{0, 1} })

// testQuery is a 2-op query (select on S1, join on S2) that passes every
// tuple with payload 50 and joins on small shared keys.
func testQuery() *query.Query {
	q := query.NewNWayJoin("NETQ", 2, 5)
	q.Ops[0].Sel = 0.9
	q.Ops[1].Sel = 0.9
	return q
}

func testPolicy() runtime.Policy {
	return &runtime.StaticPolicy{
		PolicyName: "FIXED",
		Plan:       query.Plan{0, 1},
		Assign:     physical.Assignment{0, 1},
	}
}

// testBatch builds n tuples on streamName at virtual time ts with keys
// cycling a small domain (so S1 and S2 tuples collide and join).
func testBatch(streamName string, seq *uint64, ts float64, n int) *stream.Batch {
	b := stream.NewSizedBatch(streamName, 1, n)
	for i := 0; i < n; i++ {
		row := b.AppendRow(*seq, stream.Time(ts), int64(i%8), stream.Time(ts))
		row[0] = 50 // passes the selection at Sel 0.9 (threshold 90)
		*seq++
	}
	return b
}

func openTestSession(t *testing.T, nNodes int, pol runtime.Policy) runtime.Session {
	t.Helper()
	q := testQuery()
	s, err := OpenSession(q, nNodes, pol, engine.Config{}, runtime.SessionOptions{MaxPending: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionLifecycle is the distributed hello-world: real worker
// processes, real TCP, results out the far end, clean shutdown, no
// processes left behind (TestMain's leak gate).
func TestSessionLifecycle(t *testing.T) {
	s := openTestSession(t, 2, testPolicy())
	if s.Substrate() != "net" {
		t.Fatalf("substrate %q, want net", s.Substrate())
	}
	if got := len(LiveWorkers()); got != 2 {
		t.Fatalf("%d live workers, want 2", got)
	}
	ctx := context.Background()
	var seq uint64
	for i := 0; i < 40; i++ {
		st := "S1"
		if i%2 == 1 {
			st = "S2"
		}
		if err := s.Ingest(ctx, testBatch(st, &seq, float64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Substrate != "net" || rep.Policy != "FIXED" {
		t.Fatalf("report header %q/%q", rep.Policy, rep.Substrate)
	}
	if rep.Ingested != 400 {
		t.Fatalf("ingested %v, want 400", rep.Ingested)
	}
	if rep.Produced == 0 {
		t.Fatal("distributed pipeline produced nothing")
	}
	if got := len(LiveWorkers()); got != 0 {
		t.Fatalf("%d workers outlived Close", got)
	}
}

// TestStageChunkedTransfer pins the multi-frame stage exchange: with the
// chunk bound squeezed to a few dozen bytes, every hop's request and reply
// is forced through frameStagePart continuations, and the run must produce
// exactly what an unchunked run over the same deterministic ingest
// sequence produces. Draining after every batch serializes inserts and
// probes, so the two runs see identical window states hop for hop — and
// the router, summing a chunked hop's counts, offers the chooser identical
// selectivities batch for batch.
func TestStageChunkedTransfer(t *testing.T) {
	var seen [2][][]float64 // per run: the selectivities of every batch's snapshot
	run := func(chunk int, sels *[][]float64) *runtime.Report {
		q := testQuery()
		c, err := NewCluster(q, physical.Assignment{0, 1}, 2, ClusterConfig{stageChunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		c.SetChooser(engine.ChooserFunc(func(snap stats.Snapshot) query.Plan {
			*sels = append(*sels, slices.Clone(snap.Sels))
			return query.Plan{0, 1}
		}))
		c.Start()
		var seq uint64
		for i := 0; i < 30; i++ {
			st := "S1"
			if i%2 == 1 {
				st = "S2"
			}
			if err := c.Ingest(testBatch(st, &seq, float64(i), 10)); err != nil {
				t.Fatal(err)
			}
			c.Drain()
		}
		return c.Stop()
	}

	base := run(0, &seen[0])  // DefaultStageChunk: single-frame hops
	tiny := run(48, &seen[1]) // below one joined pair's wire size: every hop chunks
	if base.Produced == 0 {
		t.Fatal("baseline run produced nothing")
	}
	if tiny.Produced != base.Produced || tiny.Ingested != base.Ingested {
		t.Fatalf("chunked run diverged: produced %v/%v, ingested %v/%v",
			tiny.Produced, base.Produced, tiny.Ingested, base.Ingested)
	}
	if !slices.EqualFunc(seen[0], seen[1], slices.Equal) {
		t.Fatalf("chunked run offered selectivities %v, unchunked %v", seen[1], seen[0])
	}
	if got := len(LiveWorkers()); got != 0 {
		t.Fatalf("%d workers outlived the chunked runs", got)
	}
}

// TestCrashIsSIGKILLAndRecoverRestores pins the substrate's defining
// semantics: Crash kills the worker process itself (the live-process table
// shrinks), parked work and a checkpoint restore bring the node back, and
// the run still completes.
func TestCrashIsSIGKILLAndRecoverRestores(t *testing.T) {
	s := openTestSession(t, 2, testPolicy())
	ctx := context.Background()
	var seq uint64
	feedSome := func(from int) {
		for i := from; i < from+20; i++ {
			st := "S1"
			if i%2 == 1 {
				st = "S2"
			}
			if err := s.Ingest(ctx, testBatch(st, &seq, float64(i), 10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feedSome(0)
	if err := s.Crash(1); err != nil {
		t.Fatal(err)
	}
	if got := len(LiveWorkers()); got != 1 {
		t.Fatalf("after Crash: %d live workers, want 1 (crash must be a real process kill)", got)
	}
	// The pipeline survives the outage: batches route, work for the dead
	// node parks.
	feedSome(20)
	if err := s.Recover(1); err != nil {
		t.Fatal(err)
	}
	if got := len(LiveWorkers()); got != 2 {
		t.Fatalf("after Recover: %d live workers, want 2", got)
	}
	feedSome(40)
	rep, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 1 {
		t.Fatalf("crashes %d, want 1", rep.Crashes)
	}
	if rep.Produced == 0 {
		t.Fatal("no results through a crash+recover run")
	}
}

// TestIngestAfterAllNodesDown pins the typed error surface when the whole
// cluster is gone.
func TestIngestAfterAllNodesDown(t *testing.T) {
	s := openTestSession(t, 1, &runtime.StaticPolicy{
		PolicyName: "FIXED", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 0},
	})
	ctx := context.Background()
	var seq uint64
	if err := s.Ingest(ctx, testBatch("S1", &seq, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(0); err != nil {
		t.Fatal(err)
	}
	err := s.Ingest(ctx, testBatch("S1", &seq, 1, 5))
	if !errors.Is(err, engine.ErrNodeDown) {
		t.Fatalf("got %v, want ErrNodeDown", err)
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// dialLeader opens a raw framed connection to a live cluster's listener.
func dialLeader(t *testing.T, c *Cluster) *wireConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", c.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wc := newWireConn(conn)
	t.Cleanup(func() { wc.Close() })
	return wc
}

// TestLeaderRejectsBadHandshakes drives the leader's accept loop with the
// three hostile dials the wire protocol must refuse typed: a stale-epoch
// worker (a survivor of a previous leader incarnation), a version-skewed
// worker, and a non-hello first frame. Each must get an error frame, never
// a hang or a crash, and the cluster must keep serving its real workers.
func TestLeaderRejectsBadHandshakes(t *testing.T) {
	q := testQuery()
	c, err := NewCluster(q, physical.Assignment{0, 0}, 1, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	expectRejection := func(helloPayload []byte, firstFrame frameType, want error) {
		t.Helper()
		wc := dialLeader(t, c)
		if err := wc.writeFrame(firstFrame, helloPayload); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := wc.readFrame()
		if err != nil {
			t.Fatalf("no reply: %v", err)
		}
		if ft != frameError {
			t.Fatalf("got frame %d, want error frame", ft)
		}
		d := wire.Dec{B: payload}
		got := codeToError(d.U8(), d.Str())
		if !errors.Is(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}

	// Stale worker from a dead leader incarnation.
	expectRejection(encodeHello(0, c.epoch+1), frameHello, ErrStaleEpoch)
	// Version-skewed worker.
	var e wire.Enc
	e.U32(protoMagic)
	e.U16(ProtoVersion + 7)
	e.U32(0)
	e.U64(c.epoch)
	expectRejection(e.B, frameHello, ErrVersionMismatch)
	// Garbage first frame.
	expectRejection([]byte("not a hello"), frameInsert, ErrBadFrame)
	// Out-of-range node index.
	expectRejection(encodeHello(99, c.epoch), frameHello, ErrBadFrame)
}

// TestStaleWorkerRunWorker exercises the worker side of a leader restart:
// RunWorker dialing a fresh leader with a stale epoch must come back with
// the typed ErrStaleEpoch (carried through the error frame), not hang.
func TestStaleWorkerRunWorker(t *testing.T) {
	q := testQuery()
	c, err := NewCluster(q, physical.Assignment{0, 0}, 1, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := RunWorker(c.Addr(), 0, c.epoch^0xdead); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("got %v, want ErrStaleEpoch", err)
	}
}

// TestFailedNewClusterReleasesWAL is engine's
// TestRejectedOpenSessionReleasesWAL for a leader that fails after its
// router exists (here: workers that exit before their handshake): the
// router's open log segment and its engine-* directory must go with it.
func TestFailedNewClusterReleasesWAL(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors with")
		}
		return len(ents)
	}
	walDir := t.TempDir()
	before := openFDs()
	for i := 0; i < 3; i++ {
		_, err := NewCluster(testQuery(), physical.Assignment{0, 1}, 2, ClusterConfig{
			Engine:        engine.Config{WALDir: walDir},
			WorkerCommand: []string{"/bin/false"},
		})
		if !errors.Is(err, ErrWorkerDown) {
			t.Fatalf("a cluster of /bin/false workers returned %v, want ErrWorkerDown", err)
		}
	}
	if after := openFDs(); after > before {
		t.Fatalf("3 failed startups left %d descriptors open", after-before)
	}
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		t.Errorf("failed startup left %s behind", ent.Name())
	}
}

// runNetExactlyOnce drives one deterministic phased run over a real
// worker cluster: warm the join window, checkpoint, grow the window past
// the barrier, then (when fault is set) SIGKILL the join node, keep
// feeding through the outage, and recover. Every batch is drained before
// the next, and within the outage all S2 inserts precede all S1 probes,
// so the faulted run's replayed probes see exactly the window content the
// fault-free run's probes saw. Returns the final results and the multiset
// of result identities (each result keyed by its input tuples' TupleIDs).
func runNetExactlyOnce(t *testing.T, walDir string, fault bool) (*runtime.Report, map[string]int) {
	t.Helper()
	// Window far past the feed's timestamp range: no expiry, so probe
	// results depend only on window content — what the WAL must recover.
	q := query.NewNWayJoin("NETQ", 2, 1000)
	q.Ops[0].Sel = 0.9
	q.Ops[1].Sel = 0.9
	c, err := NewCluster(q, physical.Assignment{0, 1}, 2, ClusterConfig{
		Engine: engine.Config{WALDir: walDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetChooser(plan01)
	var mu sync.Mutex
	set := make(map[string]int)
	c.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for _, j := range tuples {
			set[fmt.Sprint(j.TupleIDs(nil))]++
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
	feed("S2", &s2, 6) // warm the join window
	feed("S1", &s1, 6) // pre-fault probes
	c.Checkpoint()
	feed("S2", &s2, 4) // window growth past the barrier: WAL-covered only
	if fault {
		if err := c.Crash(1, chaos.Checkpoint); err != nil {
			t.Fatal(err)
		}
	}
	feed("S2", &s2, 2) // outage inserts: in the router's log only, replayed at recovery
	feed("S1", &s1, 2) // outage probes: park, replay after recovery
	if fault {
		if err := c.Recover(1); err != nil {
			t.Fatal(err)
		}
		c.Drain()
	}
	feed("S2", &s2, 2)
	feed("S1", &s1, 4) // post-recovery probes: need the full window back
	res := c.Stop()
	return res, set
}

// TestChaosNetExactlyOnceSIGKILL is the distributed tentpole acceptance
// test: a literal SIGKILL of the join worker between checkpoints, with
// ingest continuing through the outage, must recover to exactly the
// fault-free run's results — same count, same result identities, zero
// duplicates. The router restores the respawned process from its
// checkpoint and replays the log suffix into it — the post-checkpoint
// inserts the dead incarnation held and the ones it never saw — and
// insert-time dedup collapses every overlap.
func TestChaosNetExactlyOnceSIGKILL(t *testing.T) {
	base, baseSet := runNetExactlyOnce(t, t.TempDir(), false)
	if base.Produced == 0 {
		t.Fatal("fault-free run produced nothing")
	}
	got, gotSet := runNetExactlyOnce(t, t.TempDir(), true)
	if got.Crashes != 1 {
		t.Fatalf("crashes=%d, want 1", got.Crashes)
	}
	if got.TuplesLost != 0 {
		t.Fatalf("exactly-once recovery lost %v tuples", got.TuplesLost)
	}
	if got.Produced != base.Produced {
		t.Fatalf("produced %v through SIGKILL+recover, fault-free %v", got.Produced, base.Produced)
	}
	if len(gotSet) != len(baseSet) {
		t.Fatalf("distinct results %d through SIGKILL+recover, fault-free %d", len(gotSet), len(baseSet))
	}
	for k, n := range baseSet {
		if gotSet[k] != n {
			t.Fatalf("result %s produced %d times through SIGKILL+recover, fault-free %d", k, gotSet[k], n)
		}
	}
	if got := len(LiveWorkers()); got != 0 {
		t.Fatalf("%d workers outlived the exactly-once runs", got)
	}

	// The same fault schedule without the WAL must come up short: the
	// outage-time inserts are dropped and the window rewinds to the
	// checkpoint, so later probes find strictly fewer matches. This pins
	// that the equality above is the durability layer's doing.
	noWAL, _ := runNetExactlyOnce(t, "", true)
	if noWAL.Produced >= base.Produced {
		t.Fatalf("non-durable faulted run produced %v, want < %v (scenario does not exercise the WAL)", noWAL.Produced, base.Produced)
	}
}
