//go:build !race

package engine

import (
	"context"
	"testing"

	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
)

// TestSessionResultDeliveryAllocs bounds the garbage of one batch's whole
// trip — admission, two join stages, sink, delivery to a Results subscriber
// — at 100-tuple batches with three matches per probe: the tuples and
// slices in between all come from pools the sink refills, so what is left
// is the emission's four slabs and the occasional GC-driven pool refill.
// (The race detector changes allocation behaviour; the file is excluded
// under -race.)
func TestSessionResultDeliveryAllocs(t *testing.T) {
	q, warm, probes := probeFeed(100, 3, 1, 100)
	cfg := DefaultConfig()
	cfg.Workers = 1
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1, 2}, Assign: physical.Assignment{0, 0, 0}}
	s, err := OpenSession(q, 1, pol, SessionOptions{Config: cfg, ResultBuffer: 4, MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range warm {
		if err := s.Ingest(ctx, b); err != nil {
			t.Fatal(err)
		}
		s.e.Drain()
	}
	<-s.Results() // warm's own emission
	results := 0
	step := func() {
		if err := s.Ingest(ctx, probes[0]); err != nil {
			t.Fatal(err)
		}
		results = len((<-s.Results()).Tuples)
	}
	for i := 0; i < 50; i++ {
		step() // fill the pools
	}
	if results != 300 {
		t.Fatalf("a probe batch produced %d results, want 300", results)
	}
	delivered := testing.AllocsPerRun(200, step)
	if delivered > 16 {
		t.Fatalf("%v allocations per batch with a subscriber attached, want <= 16", delivered)
	}
	// A subscriber that stopped reading: once the buffer is full an emission
	// is dropped before it is copied, so the slabs are not paid for.
	dropped := testing.AllocsPerRun(200, func() {
		if err := s.Ingest(ctx, probes[0]); err != nil {
			t.Fatal(err)
		}
		s.e.Drain()
	})
	t.Logf("allocations per batch: %v delivered, %v dropped", delivered, dropped)
	if dropped > delivered-3 {
		t.Fatalf("%v allocations per dropped emission against %v per delivered one: the copy was made first", dropped, delivered)
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
