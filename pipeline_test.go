package rld

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stressBatch builds one batch of size random tuples on a random stream.
func stressBatch(dep *Deployment, rng *rand.Rand, ts *float64, size int) *Batch {
	s := dep.Query.Streams[rng.Intn(len(dep.Query.Streams))]
	b := &Batch{Stream: s}
	for j := 0; j < size; j++ {
		*ts += 0.01
		t := Time(*ts)
		b.Append(&Tuple{
			Stream: s, Seq: uint64(j), Ts: t,
			Key: rng.Int63n(1024), Vals: []float64{rng.Float64() * 100}, Arrival: t,
		})
	}
	return b
}

// TestPipelineStressConcurrentOps exercises one live-engine Pipeline under
// every concurrent mutation the session API allows at once — Ingest from
// several goroutines, policy hot-swaps, manual migrations, crash/recovery
// cycles, and stats polling — and must run clean under -race.
func TestPipelineStressConcurrentOps(t *testing.T) {
	dep := testDeployment(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	pipe, err := Open(ctx, dep, nil,
		WithWorkers(2),
		WithMaxFanout(4),
		WithBufferedResults(1024),
		WithBufferedEvents(1024),
		WithMaxPending(64))
	if err != nil {
		t.Fatal(err)
	}

	rod, err := NewROD(dep)
	if err != nil {
		t.Fatal(err)
	}

	var produced int64
	resultsDone := make(chan struct{})
	go func() {
		defer close(resultsDone)
		for rb := range pipe.Results() {
			produced += int64(rb.Count)
		}
	}()

	var wg sync.WaitGroup
	const ingesters = 4
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			ts := float64(g)
			for i := 0; i < 120; i++ {
				err := pipe.Ingest(ctx, stressBatch(dep, rng, &ts, 20))
				switch {
				case err == nil:
				case errors.Is(err, ErrNodeDown):
					// The chaos goroutine can briefly take the whole
					// cluster down; that rejection is the typed contract.
				default:
					t.Errorf("ingester %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // policy hot-swapper
		defer wg.Done()
		for i := 0; i < 30; i++ {
			var err error
			if i%2 == 0 {
				err = pipe.SwapPolicy(rod)
			} else {
				err = pipe.SwapPolicy(dep.NewPolicy(50))
			}
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // manual migrator
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		nOps, nNodes := len(dep.Query.Ops), dep.Cluster.N()
		for i := 0; i < 40; i++ {
			if err := pipe.Migrate(rng.Intn(nOps), rng.Intn(nNodes)); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("migrate %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // crash/recovery cycles on node 1
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if err := pipe.Crash(1); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("crash %d: %v", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
			if err := pipe.Recover(1); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("recover %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // stats poller
		defer wg.Done()
		for i := 0; i < 200; i++ {
			st := pipe.Stats()
			if st.Substrate != "engine" {
				t.Errorf("stats substrate %q", st.Substrate)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()

	rep, err := pipe.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-resultsDone
	kinds := map[EventKind]int{}
	for ev := range pipe.Events() {
		kinds[ev.Kind]++
	}
	if rep.Ingested == 0 || rep.Batches == 0 {
		t.Fatalf("stress run admitted nothing: %+v", rep)
	}
	if rep.Crashes == 0 {
		t.Error("no crashes recorded despite the chaos goroutine")
	}
	if kinds[EventCrash] == 0 || kinds[EventRecovery] == 0 || kinds[EventPolicySwap] == 0 {
		t.Errorf("missing event kinds: %v", kinds)
	}
	if st := pipe.Stats(); st.PolicySwaps != 30 {
		t.Errorf("policy swaps = %d, want 30", st.PolicySwaps)
	}
	t.Logf("ingested %.0f, produced %.0f (streamed %d), crashes %d, migrations %d, events %v",
		rep.Ingested, rep.Produced, produced, rep.Crashes, rep.Migrations, kinds)

	// Idempotent close, typed rejection afterwards.
	if _, err := pipe.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	ts := 0.0
	if err := pipe.Ingest(ctx, stressBatch(dep, rng, &ts, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
}

// TestPipelineSimSubstrate drives the identical Pipeline surface on the
// simulator: same Open call, same Ingest/Stats/Close protocol, virtual
// time from batch timestamps.
func TestPipelineSimSubstrate(t *testing.T) {
	dep := testDeployment(t)
	ctx := context.Background()
	pipe, err := Open(ctx, dep, nil,
		WithSimulation(&Scenario{}), WithHorizon(600),
		WithBufferedResults(4096))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Substrate() != "sim" {
		t.Fatalf("substrate %q", pipe.Substrate())
	}
	rng := rand.New(rand.NewSource(5))
	ts := 0.0
	for i := 0; i < 200; i++ {
		if err := pipe.Ingest(ctx, stressBatch(dep, rng, &ts, 25)); err != nil {
			t.Fatal(err)
		}
	}
	if st := pipe.Stats(); st.Ingested != 200*25 || st.VirtualTime == 0 {
		t.Fatalf("sim stats: %+v", st)
	}
	rep, err := pipe.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Substrate != "sim" || rep.Ingested != 200*25 || rep.Produced == 0 {
		t.Fatalf("sim report: %+v", rep)
	}
	var sum float64
	for rb := range pipe.Results() {
		sum += rb.Count
	}
	if sum == 0 {
		t.Fatal("no results streamed from the sim substrate")
	}
}
