package engine

import (
	"math"
	"sync"
	"testing"

	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stats"
	"rld/internal/stream"
)

// twoWay builds a tiny 2-stream join query: one select on S1, one join on
// S2.
func twoWay() *query.Query {
	q := query.NewNWayJoin("E", 2, 5)
	return q
}

// feed pushes n batches per stream of the given size through the engine.
func feed(t *testing.T, e *Engine, q *query.Query, batches, size int, sel float64) {
	t.Helper()
	seed := int64(11)
	srcs := make([]*gen.Source, len(q.Streams))
	for i, name := range q.Streams {
		srcs[i] = gen.NewSource(name,
			gen.ConstProfile(50),
			gen.KeyDist{Target: gen.ConstProfile(sel), Cold: 512},
			gen.Uniform{A: 0, B: 100}, seed+int64(i))
	}
	for b := 0; b < batches; b++ {
		for i := range srcs {
			batch := stream.NewBatch(q.Streams[i])
			for j := 0; j < size; j++ {
				tu, ok := srcs[i].Next()
				if !ok {
					t.Fatal("source dried up")
				}
				batch.Append(tu)
			}
			if err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEngineEndToEndProducesJoins(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 20, 50, 0.5)
	res := e.Stop()
	if res.Ingested != 2*20*50 {
		t.Fatalf("ingested %d", res.Ingested)
	}
	if res.Produced == 0 {
		t.Fatal("no join results with 0.5 key selectivity")
	}
	if res.Batches != 40 {
		t.Fatalf("batches = %d", res.Batches)
	}
	if res.MeanLatencyMS < 0 {
		t.Fatal("negative latency")
	}
	if res.PlanUse[query.Plan{0, 1}.Key()] != 40 {
		t.Fatalf("plan use = %v", res.PlanUse)
	}
}

func TestEngineSelectivityObserved(t *testing.T) {
	q := twoWay()
	q.Ops[0].Sel = 0.3 // select passes ~30% of Uniform(0,100)
	e, err := New(q, physical.Assignment{0, 0}, 1, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 40, 50, 0.4)
	res := e.Stop()
	// Selections report their own-stream pass fraction: Uniform(0,100)
	// payloads against threshold 0.3×100 pass ≈30% of the time.
	got := res.ObservedSels[0]
	if math.Abs(got-0.3) > 0.08 {
		t.Fatalf("observed select selectivity %v, want ≈0.3", got)
	}
}

func TestEngineDynamicChooserSwitchesPlans(t *testing.T) {
	q := twoWay()
	plans := []query.Plan{{0, 1}, {1, 0}}
	var n int64
	var mu sync.Mutex
	chooser := ChooserFunc(func(stats.Snapshot) query.Plan {
		mu.Lock()
		defer mu.Unlock()
		n++
		return plans[n%2]
	})
	e, err := New(q, physical.Assignment{0, 1}, 2, chooser, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 10, 20, 0.5)
	res := e.Stop()
	if len(res.PlanUse) != 2 {
		t.Fatalf("expected both plans used: %v", res.PlanUse)
	}
}

func TestEngineRejectsBadInputs(t *testing.T) {
	q := twoWay()
	if _, err := New(q, physical.NewAssignment(2), 2, nil, DefaultConfig()); err == nil {
		t.Fatal("incomplete placement must error")
	}
	if _, err := New(q, physical.Assignment{0, 5}, 2, nil, DefaultConfig()); err == nil {
		t.Fatal("out-of-range node must error")
	}
	bad := twoWay()
	bad.Ops[0].Sel = 2
	if _, err := New(bad, physical.Assignment{0, 1}, 2, nil, DefaultConfig()); err == nil {
		t.Fatal("invalid query must error")
	}
}

func TestEngineIngestBeforeStartErrors(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(stream.NewBatch("S1")); err == nil {
		t.Fatal("ingest before Start must error")
	}
	e.Start()
	defer e.Stop()
	bad := StaticChooser{Plan: query.Plan{9, 9}}
	e2, _ := New(q, physical.Assignment{0, 1}, 2, bad, DefaultConfig())
	e2.Start()
	defer e2.Stop()
	b := stream.NewBatch("S1")
	b.Append(&stream.Tuple{Stream: "S1", Key: 1, Vals: []float64{1}})
	if err := e2.Ingest(b); err == nil {
		t.Fatal("invalid chooser plan must error")
	}
}

func TestEngineStopIdempotent(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r1 := e.Stop()
	r2 := e.Stop()
	if r1.Ingested != r2.Ingested {
		t.Fatal("double Stop changed results")
	}
}

func TestEngineSelfSendNoDeadlock(t *testing.T) {
	// All operators on one single-worker node: the worker forwarding to
	// its own node's queue must not deadlock.
	q := query.NewNWayJoin("E", 3, 5)
	cfg := DefaultConfig()
	cfg.Workers = 1
	e, err := New(q, physical.Assignment{0, 0, 0}, 1, StaticChooser{Plan: query.Plan{0, 1, 2}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 10, 30, 0.4)
	res := e.Stop()
	if res.Ingested == 0 {
		t.Fatal("nothing ingested")
	}
}

func TestEngineMaxFanoutBoundsBlowup(t *testing.T) {
	q := twoWay()
	cfg := DefaultConfig()
	cfg.MaxFanout = 2
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	// Hot keys: selectivity 1 → every probe matches the whole window.
	feed(t, e, q, 10, 50, 1.0)
	res := e.Stop()
	// With fanout 2 the output is at most 2 per surviving partial.
	if res.Produced > 2*res.Ingested {
		t.Fatalf("fanout cap violated: %d produced for %d ingested", res.Produced, res.Ingested)
	}
}

func TestEngineMonitorAccessible(t *testing.T) {
	q := twoWay()
	e, err := New(q, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feed(t, e, q, 2, 10, 0.5)
	if !e.Monitor().Primed() {
		t.Fatal("monitor should be primed after ingest")
	}
	e.Stop()
}
