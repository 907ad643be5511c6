package rld

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"
)

// TestMain makes the test binary usable as a distributed-mode worker: the
// WithDistributed tests below spawn workers by re-executing it, and
// MaybeWorker must intercept those re-execs before the framework runs.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// TestPipelineDistributed drives the public distributed surface end to
// end: Open with WithDistributed spawns worker processes, Ingest flows
// over the wire, Crash SIGKILLs a worker, Recover respawns it, and Close
// reports a complete run.
func TestPipelineDistributed(t *testing.T) {
	dep := testDeployment(t)
	ctx := context.Background()
	pipe, err := Open(ctx, dep, nil, WithDistributed(0), WithMaxPending(64))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Substrate() != "net" {
		t.Fatalf("substrate %q, want net", pipe.Substrate())
	}
	rng := rand.New(rand.NewSource(7))
	ts := 0.0
	for i := 0; i < 30; i++ {
		if err := pipe.Ingest(ctx, stressBatch(dep, rng, &ts, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Crash(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := pipe.Ingest(ctx, stressBatch(dep, rng, &ts, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Recover(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := pipe.Ingest(ctx, stressBatch(dep, rng, &ts, 20)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := pipe.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Substrate != "net" {
		t.Fatalf("report substrate %q", rep.Substrate)
	}
	if rep.Ingested != 1000 {
		t.Fatalf("ingested %v, want 1000", rep.Ingested)
	}
	if rep.Crashes != 1 {
		t.Fatalf("crashes %d, want 1", rep.Crashes)
	}
	if err := pipe.Ingest(ctx, stressBatch(dep, rng, &ts, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
}

// TestDistributedExcludesSimulation pins the option conflict as a typed
// Open-time failure rather than a surprise at runtime.
func TestDistributedExcludesSimulation(t *testing.T) {
	dep := testDeployment(t)
	_, err := Open(context.Background(), dep, nil, WithSimulation(&Scenario{}), WithDistributed(0))
	if err == nil {
		t.Fatal("Open accepted WithSimulation + WithDistributed")
	}
}
