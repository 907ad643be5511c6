package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"rld/internal/stream"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	// 999 samples leave 9.99 beyond p99: refused.
	if _, err := percentile(xs, 99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	xs = append(xs, 999)
	v, err := percentile(xs, 99)
	if err != nil || v != 989 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989", v, err)
	}
	if _, err := percentile(xs[:99], 90); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err = %v, want errTooFewSamples", err)
	}
}

func TestMedianOfSegments(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		// One stalled segment does not move the phase's value.
		{[]float64{10, 10, 10, 10, 1000}, 10},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("iqrShare = %v, want %v", got, want)
	}
}

// TestCycleRebasing replays three cycles of every feed and checks what the
// engine relies on: per-stream timestamps never decrease, no tuple ID
// repeats, and a tuple ID maps back to the batch that carried it.
func TestCycleRebasing(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		if s.distributed || s.durable {
			continue // same feeds as their engine_* twins
		}
		f := newFeed(s, 7)
		if len(f.cycle) < cycleTicks*tickBatches*9/10 {
			t.Fatalf("%s: cycle has only %d batches", s.name, len(f.cycle))
		}
		lastTs := make([]stream.Time, len(f.query.Streams))
		seen := map[stream.TupleID]bool{}
		for g := 0; g < 3*len(f.cycle); g++ {
			b := f.emit(g)
			slot := f.slot[g%len(f.cycle)]
			if b.Len() != s.batch {
				t.Fatalf("%s: batch %d has %d tuples", s.name, g, b.Len())
			}
			if got := f.lastTs(g); got != float64(b.LastTs()) {
				t.Fatalf("%s: lastTs(%d) = %v, batch says %v", s.name, g, got, b.LastTs())
			}
			for k := range b.Seq {
				if b.Ts[k] < lastTs[slot] {
					t.Fatalf("%s: batch %d row %d: ts %v after %v on stream %d", s.name, g, k, b.Ts[k], lastTs[slot], slot)
				}
				lastTs[slot] = b.Ts[k]
				id := stream.MakeTupleID(slot, b.Seq[k])
				if seen[id] {
					t.Fatalf("%s: batch %d repeats tuple %v", s.name, g, id)
				}
				seen[id] = true
				if got := f.batchOf(slot, b.Seq[k]); got != g {
					t.Fatalf("%s: batchOf(%d, %d) = %d, want %d", s.name, slot, b.Seq[k], got, g)
				}
			}
		}
	}
}

// TestCrashWindowsClearOfEdges checks the scripted recovery plan: every
// crash and every recovery edge keeps its margin from every tick and
// checkpoint edge, windows do not overlap, and the plan validates.
func TestCrashWindowsClearOfEdges(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		plan := s.recoveryPlan(1)
		if err := plan.Validate(nodes); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(plan.Faults) != maxCycles {
			t.Fatalf("%s: %d windows, want %d", s.name, len(plan.Faults), maxCycles)
		}
		tick := s.tickEvery()
		margin := crashMargin / s.batchesPerSecond()
		warmEnd := float64(s.warmCount()) / s.batchesPerSecond()
		prevUntil := 0.0
		for k, w := range plan.Faults {
			if w.At < warmEnd {
				t.Fatalf("%s: window %d starts at %v, inside the warm-up (%v)", s.name, k, w.At, warmEnd)
			}
			if w.At <= prevUntil {
				t.Fatalf("%s: window %d overlaps its predecessor", s.name, k)
			}
			prevUntil = w.Until
			for _, edge := range []float64{w.At, w.Until} {
				// Checkpoint edges are multiples of the tick, so the
				// distance to the nearest tick edge covers both.
				d := math.Abs(edge - tick*math.Round(edge/tick))
				if d < margin*(1-1e-9) {
					t.Fatalf("%s: window %d edge %v is %v from a control edge, margin %v", s.name, k, edge, d, margin)
				}
			}
			// No control edge falls inside the window either.
			if math.Floor(w.At/tick) != math.Floor(w.Until/tick) {
				t.Fatalf("%s: window %d [%v, %v) spans a tick edge", s.name, k, w.At, w.Until)
			}
		}
	}
}

// TestReferenceJoin pins the harness's own join on a case small enough to
// enumerate by hand.
func TestReferenceJoin(t *testing.T) {
	s := findSpec("engine_join")
	q := s.newQuery() // select on S1, joins on S2 and S3
	ref := newRefJoin(q)
	mk := func(name string, seq uint64, key int64, val float64) *stream.Batch {
		b := stream.NewSizedBatch(name, 1, 1)
		b.AppendRow(seq, 0, key, 0)[0] = val
		return b
	}
	count := 0
	emit := func([]stream.TupleID) { count++ }
	ref.ingest(mk("S2", 0, 5, 0), 1, emit)  // S3 window empty: nothing
	ref.ingest(mk("S3", 0, 5, 0), 2, emit)  // joins the S2 tuple: 1
	ref.ingest(mk("S3", 1, 5, 0), 2, emit)  // again: 1
	ref.ingest(mk("S1", 0, 5, 10), 0, emit) // passes the selection: 1 × 2
	ref.ingest(mk("S1", 1, 5, 90), 0, emit) // fails it: nothing
	ref.ingest(mk("S1", 2, 6, 10), 0, emit) // no such key: nothing
	if count != 4 {
		t.Fatalf("reference join emitted %d results, want 4", count)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program in step:
// the gated workloads, the end-to-end metrics and the per-layer metrics are
// the ones the program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var gated []spec
	for _, s := range specs {
		if s.gated {
			gated = append(gated, s)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated specs", len(bf.Workloads), len(gated))
	}
	for i, w := range bf.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != endToEnd[i].better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %v, the program %v", i, m, endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit || m.Better != layerMetrics[i].better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %v, the program %v", i, m, layerMetrics[i])
		}
	}
}
