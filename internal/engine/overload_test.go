package engine

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stream"
)

// TestOverloadBoundedGoroutinesAndStageOrder pins the node queue under
// overload: flooding a 1-node, single-worker engine must neither spawn
// goroutines per queued message (an early full-inbox fallback was an async
// goroutine handoff, unbounded under sustained overload) nor reorder
// messages within a stage (racing handoff goroutines delivered in
// scheduler order). With one worker and one FIFO per node, sink emissions
// must arrive in exact ingest order. Before the flood, a lockstep phase
// keeps the queue from ever draining and checks that its backing array
// stays O(peak depth) rather than growing with every message that has
// passed through. Run under -race in CI.
func TestOverloadBoundedGoroutinesAndStageOrder(t *testing.T) {
	q := twoWay()
	q.Ops[0].Sel = 0.99 // selection passes the probes through to the join
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.MaxFanout = 4
	e, err := New(q, physical.Assignment{0, 0}, 1, staticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var recording, lockstep atomic.Bool
	emitted, resume := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var got []uint64
	e.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		if !recording.Load() {
			return
		}
		if lockstep.Load() {
			// Hold the only worker inside the sink until the producer has
			// queued the next probe behind whatever is already waiting.
			emitted <- struct{}{}
			<-resume
		}
		// Each emission is one probe batch completing the pipeline; all
		// its result tuples share the probe's S1 tuple.
		for _, j := range tuples {
			if t1, ok := j.PartByStream("S1"); ok {
				mu.Lock()
				got = append(got, t1.Seq)
				mu.Unlock()
				return
			}
		}
	})
	e.Start()

	// Warm the S2 join window with one hot key so every probe produces
	// results (and therefore a sink emission to order-check).
	if err := e.Ingest(heavyBatch("S2", 4, 0)); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	recording.Store(true)
	probe := func(i int) {
		b := stream.NewBatch("S1")
		ts := stream.Time(1 + float64(i)*1e-6)
		b.Append(&stream.Tuple{Stream: "S1", Seq: uint64(i), Ts: ts, Key: 1, Vals: []float64{10}, Arrival: ts})
		if err := e.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}

	// Lockstep: two probes go in, and every emission after that is answered
	// with one more probe while the worker is held in the sink — so each
	// take finds at least two messages queued and the queue never empties.
	// A queue that only ever appended would end this phase with a backing
	// array of ~2 × steps entries; compaction keeps it at a few.
	const steps = 2000
	lockstep.Store(true)
	probe(0)
	probe(1)
	for i := 2; i < steps+2; i++ {
		<-emitted
		if i < steps {
			probe(i)
		}
		resume <- struct{}{}
	}
	lockstep.Store(false)
	e.Drain()
	ns := e.nodes[0]
	ns.mu.Lock()
	queueCap := cap(ns.queue)
	ns.mu.Unlock()
	if queueCap > 32 {
		t.Fatalf("queue backing array grew to %d entries over %d messages at depth ≤ 3; it must stay O(peak depth)", queueCap, 2*steps)
	}

	const flood = 3000
	base := stdruntime.NumGoroutine()
	peak := base
	for i := steps; i < steps+flood; i++ {
		probe(i)
		if i%64 == 0 {
			if n := stdruntime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	}
	if n := stdruntime.NumGoroutine(); n > peak {
		peak = n
	}
	e.Drain()
	if res := e.Stop(); res.Produced == 0 {
		t.Fatal("flood produced nothing")
	}

	// A goroutine per queued message would be thousands under this flood.
	// The queue spawns none; allow a little scheduler noise.
	if peak > base+8 {
		t.Fatalf("goroutines grew from %d to %d under overload; queueing must not spawn goroutines", base, peak)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != steps+flood {
		t.Fatalf("observed %d ordered emissions, want %d", len(got), steps+flood)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("stage order violated at emission %d: seq %d after %d", i, got[i], got[i-1])
		}
	}
}
