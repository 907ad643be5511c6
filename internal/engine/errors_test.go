package engine

import (
	"errors"
	"testing"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
)

// mkBatch builds a one-tuple batch for the given stream at t seconds.
func mkBatch(streamName string, t float64) *stream.Batch {
	b := stream.NewBatch(streamName)
	b.Append(&stream.Tuple{Stream: streamName, Ts: stream.Time(t), Key: 1, Vals: []float64{10}, Arrival: stream.Time(t)})
	return b
}

// TestIngestLifecycleErrors pins the typed failures of the ingest path:
// before Start, after Stop, and into a fully-crashed cluster.
func TestIngestLifecycleErrors(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(mkBatch("S1", 1)); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("ingest before Start: %v, want ErrNotStarted", err)
	}
	e.Start()
	if err := e.Ingest(mkBatch("S1", 1)); err != nil {
		t.Fatalf("ingest while running: %v", err)
	}

	// Crash the whole cluster: ingest must fail typed, not rely on the
	// caller noticing nothing comes out.
	for n := 0; n < 2; n++ {
		if err := e.Crash(n, chaos.Checkpoint); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Ingest(mkBatch("S1", 2)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("ingest into fully-crashed cluster: %v, want ErrNodeDown", err)
	}
	// A partial recovery lifts the rejection.
	if err := e.Recover(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(mkBatch("S1", 3)); err != nil {
		t.Fatalf("ingest after partial recovery: %v", err)
	}
	if err := e.Recover(1); err != nil {
		t.Fatal(err)
	}

	e.Stop()
	if err := e.Ingest(mkBatch("S1", 4)); !errors.Is(err, ErrStopped) {
		t.Fatalf("ingest after Stop: %v, want ErrStopped", err)
	}
	// Control operations on a stopped engine are typed too (a Crash here
	// used to re-close the quit channel and panic).
	if err := e.Crash(0, chaos.Checkpoint); !errors.Is(err, ErrStopped) {
		t.Fatalf("crash after Stop: %v, want ErrStopped", err)
	}
	if err := e.Migrate(0, 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("migrate after Stop: %v, want ErrStopped", err)
	}
}

// TestControlArgumentErrors pins the unknown-node/op sentinels.
func TestControlArgumentErrors(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	if err := e.Migrate(99, 0); !errors.Is(err, runtime.ErrUnknownOp) {
		t.Fatalf("migrate unknown op: %v, want runtime.ErrUnknownOp", err)
	}
	if err := e.Migrate(0, 99); !errors.Is(err, runtime.ErrUnknownNode) {
		t.Fatalf("migrate to unknown node: %v, want runtime.ErrUnknownNode", err)
	}
	if err := e.Crash(99, chaos.Checkpoint); !errors.Is(err, runtime.ErrUnknownNode) {
		t.Fatalf("crash unknown node: %v, want runtime.ErrUnknownNode", err)
	}
	if err := e.Recover(-1); !errors.Is(err, runtime.ErrUnknownNode) {
		t.Fatalf("recover unknown node: %v, want runtime.ErrUnknownNode", err)
	}
	if err := e.SetSlowdown(99, 0.5); !errors.Is(err, runtime.ErrUnknownNode) {
		t.Fatalf("slowdown unknown node: %v, want runtime.ErrUnknownNode", err)
	}
}

// TestBadPlacementError pins New's placement validation sentinel.
func TestBadPlacementError(t *testing.T) {
	q := twoWay()
	if _, err := New(q, physical.Assignment{0}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig()); !errors.Is(err, runtime.ErrBadPlacement) {
		t.Fatalf("incomplete placement: %v, want runtime.ErrBadPlacement", err)
	}
	if _, err := New(q, physical.Assignment{0, 7}, 2, staticChooser{Plan: query.Plan{0, 1}}, DefaultConfig()); !errors.Is(err, runtime.ErrBadPlacement) {
		t.Fatalf("out-of-range placement: %v, want runtime.ErrBadPlacement", err)
	}
}
