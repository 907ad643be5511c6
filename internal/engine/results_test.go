package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
)

// probeFeed builds a 3-way join workload whose result multiset does not
// depend on scheduling: warm fills the S2 window with dup tuples per key and
// then the S3 window with one, probes are S1 batches only — S1 feeds a
// selection and has no window, so once warm has drained every probe tuple
// finds the same dup matches however the workers interleave. Fed one batch
// at a time, warm itself emits once: the S3 batch meets the S2 window
// (keys*dup two-part results).
func probeFeed(keys, dup, probeBatches, batchSize int) (q *query.Query, warm, probes []*stream.Batch) {
	q = query.NewNWayJoin("R", 3, 100)
	q.Ops[0].Sel = 0.99
	for i, n := range []int{keys * dup, keys} {
		b := stream.NewSizedBatch(q.Streams[i+1], 1, n)
		for i := 0; i < n; i++ {
			b.AppendRow(uint64(i), 1, int64(i%keys), 1)[0] = float64(i)
		}
		warm = append(warm, b)
	}
	for p := 0; p < probeBatches; p++ {
		b := stream.NewSizedBatch("S1", 1, batchSize)
		for j := 0; j < batchSize; j++ {
			seq := p*batchSize + j
			b.AppendRow(uint64(seq), 2, int64(seq%keys), 2)[0] = 10
		}
		probes = append(probes, b)
	}
	return q, warm, probes
}

// TestSessionRetainedResultsSurviveRecycling is the use-after-release
// detector for the closed tuple loop: the sink recycles every result tuple
// the moment the tap returns, so a consumer that keeps every ResultBatch
// until after Close — while four workers per node reuse the recycled tuples
// for later batches — must still read exactly the results a synchronous
// reader of a single-worker engine saw.
func TestSessionRetainedResultsSurviveRecycling(t *testing.T) {
	const keys, dup, nProbes, batchSize = 64, 3, 200, 50
	q, warm, probes := probeFeed(keys, dup, nProbes, batchSize)
	assign := physical.Assignment{0, 0, 1}
	plan := query.Plan{0, 1, 2}

	// Reference: bare engine, one worker, IDs read inside the tap.
	want := map[string]int{}
	cfg := DefaultConfig()
	cfg.Workers = 1
	ref, err := New(q, assign, 2, staticChooser{Plan: plan}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ref.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for _, j := range tuples {
			want[fmt.Sprint(j.TupleIDs(nil))]++
		}
	})
	ref.Start()
	for _, b := range warm {
		feedAll(t, ref, []*stream.Batch{b})
		ref.Drain()
	}
	feedAll(t, ref, probes)
	if res := ref.Stop(); res.Produced != (nProbes*batchSize+keys)*dup {
		t.Fatalf("reference produced %v results, want %d", res.Produced, (nProbes*batchSize+keys)*dup)
	}

	cfg.Workers = 4
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: plan, Assign: assign}
	s, err := OpenSession(q, 2, pol, cfg, runtime.SessionOptions{ResultBuffer: nProbes + 1, MaxPending: 32})
	if err != nil {
		t.Fatal(err)
	}
	var kept []runtime.ResultBatch
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for rb := range s.Results() {
			kept = append(kept, rb)
		}
	}()
	ctx := context.Background()
	for _, b := range warm {
		if err := s.Ingest(ctx, b); err != nil {
			t.Fatal(err)
		}
		s.e.Drain()
	}
	for _, b := range probes {
		if err := s.Ingest(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	<-consumed
	if d := s.Stats().ResultsDropped; d != 0 {
		t.Fatalf("%d emissions dropped; the buffer was sized for all of them", d)
	}

	got := map[string]int{}
	for _, rb := range kept {
		if float64(len(rb.Tuples)) != rb.Count {
			t.Fatalf("emission carries %d tuples, Count %v", len(rb.Tuples), rb.Count)
		}
		for _, j := range rb.Tuples {
			got[fmt.Sprint(j.TupleIDs(nil))]++
			for slot := 0; slot < 3; slot++ {
				if p, ok := j.Part(slot); ok && p.Key != j.Key() {
					t.Fatalf("retained tuple %v: part %d = %+v under key %d", j.TupleIDs(nil), slot, p, j.Key())
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("retained results hold %d distinct tuples, reference %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("result %s: retained %d times, reference %d", k, got[k], n)
		}
	}
}

// TestSessionSlowSubscriber pins what a full Results buffer costs the run:
// nothing but the emission — it is counted as dropped, the pipeline neither
// blocks nor loses count, and what was buffered earlier is still delivered
// whole.
func TestSessionSlowSubscriber(t *testing.T) {
	const keys, batchSize = 16, 16
	q, warm, probes := probeFeed(keys, 1, 3, batchSize)
	cfg := DefaultConfig()
	cfg.Workers = 1
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1, 2}, Assign: physical.Assignment{0, 0, 0}}
	s, err := OpenSession(q, 1, pol, cfg, runtime.SessionOptions{ResultBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range append(warm, probes...) {
		if err := s.Ingest(ctx, b); err != nil {
			t.Fatal(err)
		}
		s.e.Drain()
	}
	// Four emissions (warm's one, then the probes) into one slot nobody reads.
	if d := s.Stats().ResultsDropped; d != 3 {
		t.Fatalf("ResultsDropped = %d, want 3", d)
	}
	rep, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Produced != keys+3*batchSize {
		t.Fatalf("produced %v results, want %d", rep.Produced, keys+3*batchSize)
	}
	rb, ok := <-s.Results()
	if !ok || len(rb.Tuples) != keys {
		t.Fatalf("buffered emission: %d tuples (ok=%v), want warm's %d", len(rb.Tuples), ok, keys)
	}
	if _, more := <-s.Results(); more {
		t.Fatal("a dropped emission was delivered after all")
	}
}

// TestResultsOutliveThePipeline is the lifetime test for stolen blocks: a
// delivered emission is, when it fills its block, the last stage's own
// storage handed over as it is, so the pipeline must never touch that block
// again. The subscriber keeps every ResultBatch and writes down what each
// tuple said at receipt; four workers per node then push more than two
// thousand further batches through a crash, a parked backlog and its replay,
// and every kept tuple is read again. A recycled block would show up as a
// tuple that changed.
func TestResultsOutliveThePipeline(t *testing.T) {
	const keys, dup, nProbes, batchSize = 64, 2, 2600, 20
	q, warm, probes := probeFeed(keys, dup, nProbes, batchSize)
	cfg := DefaultConfig()
	cfg.Workers = 4
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1, 2}, Assign: physical.Assignment{0, 0, 1}}
	s, err := OpenSession(q, 2, pol, cfg, runtime.SessionOptions{ResultBuffer: nProbes + 1, MaxPending: 32})
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		ids         []stream.TupleID
		ts, arrival stream.Time
		vals        []float64
	}
	read := func(j *stream.Joined) seen {
		r := seen{ids: j.TupleIDs(nil), ts: j.Ts, arrival: j.Arrival}
		for slot := 0; slot < 3; slot++ {
			if p, ok := j.Part(slot); ok {
				r.vals = append(r.vals, p.Vals...)
			}
		}
		return r
	}
	var kept []runtime.ResultBatch
	var atReceipt [][]seen
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for rb := range s.Results() {
			rec := make([]seen, len(rb.Tuples))
			for i, j := range rb.Tuples {
				rec[i] = read(j)
			}
			kept = append(kept, rb)
			atReceipt = append(atReceipt, rec)
		}
	}()

	ctx := context.Background()
	ingest := func(bs []*stream.Batch) {
		t.Helper()
		for _, b := range bs {
			if err := s.Ingest(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range warm {
		ingest([]*stream.Batch{b})
		s.e.Drain()
	}
	s.e.Checkpoint() // what Recover restores the S3 window from
	ingest(probes[:300])
	if err := s.Crash(1); err != nil {
		t.Fatal(err)
	}
	ingest(probes[300:500]) // parked in front of the last join
	if err := s.Recover(1); err != nil {
		t.Fatal(err)
	}
	ingest(probes[500:])
	rep, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-consumed
	if want := float64((nProbes*batchSize + keys) * dup); rep.Produced != want || rep.TuplesLost != 0 {
		t.Fatalf("produced %v results and lost %v, want %v and 0", rep.Produced, rep.TuplesLost, want)
	}
	if d := s.Stats().ResultsDropped; d != 0 || len(kept) != nProbes+1 {
		t.Fatalf("%d emissions kept, %d dropped; want all %d kept", len(kept), d, nProbes+1)
	}
	// Every emission here is a whole block, so every one was stolen — or the
	// test watched nothing.
	if acq, rec := s.e.core.Schema().BlockCounts(); acq-rec != int64(len(kept)) {
		t.Fatalf("%d blocks acquired and %d recycled over %d emissions: not one stolen block each", acq, rec, len(kept))
	}
	for b, rb := range kept {
		for i, j := range rb.Tuples {
			if now := read(j); !reflect.DeepEqual(now, atReceipt[b][i]) {
				t.Fatalf("emission %d tuple %d changed after delivery: %+v, was %+v", b, i, now, atReceipt[b][i])
			}
		}
	}
}
