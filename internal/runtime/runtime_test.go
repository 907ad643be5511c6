package runtime

import (
	"math"
	"testing"

	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stats"
	"rld/internal/stream"
)

func TestStaticPolicy(t *testing.T) {
	p := &StaticPolicy{Plan: query.Plan{1, 0}, Assign: physical.Assignment{0, 1}}
	if p.Name() != "STATIC" {
		t.Fatalf("default name = %q", p.Name())
	}
	p.PolicyName = "FIXED"
	if p.Name() != "FIXED" {
		t.Fatalf("name = %q", p.Name())
	}
	if got := p.PlanFor(3, stats.Snapshot{}); !got.Equal(query.Plan{1, 0}) {
		t.Fatalf("plan = %v", got)
	}
	a := p.Placement()
	a[0] = 9
	if p.Assign[0] == 9 {
		t.Fatal("Placement must return a copy")
	}
	if p.ClassifyOverhead() != 0 || p.DecisionOverhead() != 0 {
		t.Fatal("static policy has overheads")
	}
	if p.Rebalance(0, nil, nil) != nil {
		t.Fatal("static policy migrated")
	}
}

func TestTimeline(t *testing.T) {
	var tl Timeline
	if tl.ValueAt(100) != 0 {
		t.Fatal("empty timeline should read 0")
	}
	tl.Record(10, 100)
	tl.Record(20, 250)
	tl.Record(30, 400)
	if tl.ValueAt(5) != 0 || tl.ValueAt(10) != 100 || tl.ValueAt(25) != 250 || tl.ValueAt(99) != 400 {
		t.Fatal("ValueAt interpolation wrong")
	}
}

func TestReportOverheadRatio(t *testing.T) {
	r := &Report{Policy: "RLD"}
	if r.OverheadRatio() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	r.QueryWork = 1000
	r.OverheadWork = 20
	if got := r.OverheadRatio(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("OverheadRatio = %v, want 0.02", got)
	}
}

func TestReportOutputRatioEmpty(t *testing.T) {
	r := &Report{}
	if r.OutputRatio() != 0 {
		t.Fatal("empty report ratio must be 0")
	}
}

func TestBatchSliceFeed(t *testing.T) {
	if f := (&BatchSliceFeed{}); f.Next() != nil {
		t.Fatal("empty feed must return nil")
	}
	b1, b2 := stream.NewBatch("S1"), stream.NewBatch("S2")
	f := &BatchSliceFeed{Batches: []*stream.Batch{b1, b2}}
	if f.Next() != b1 || f.Next() != b2 || f.Next() != nil {
		t.Fatal("slice feed must replay batches in order then nil")
	}
}

func TestSourceFeedOrderingAndHorizon(t *testing.T) {
	mk := func(name string, rate float64, seed int64) *gen.Source {
		return gen.NewSource(name, gen.ConstProfile(rate),
			gen.KeyDist{Target: gen.ConstProfile(0.1), Cold: 128},
			gen.Uniform{A: 0, B: 100}, seed)
	}
	const horizon = 30.0
	f := NewSourceFeed([]*gen.Source{mk("A", 20, 1), mk("B", 5, 2)}, 10, horizon)
	counts := map[string]int{}
	lastFirst := -1.0
	for b := f.Next(); b != nil; b = f.Next() {
		if b.Len() == 0 {
			t.Fatal("empty batch emitted")
		}
		first := float64(b.FirstTs())
		if first < lastFirst {
			t.Fatalf("batches out of order: %v after %v", first, lastFirst)
		}
		lastFirst = first
		for i := 0; i < b.Len(); i++ {
			tu := b.TupleAt(i)
			if float64(tu.Ts) > horizon {
				t.Fatalf("tuple past horizon: %v", tu.Ts)
			}
			if tu.Stream != b.Stream {
				t.Fatalf("mixed-stream batch: %s in %s", tu.Stream, b.Stream)
			}
			counts[tu.Stream]++
		}
	}
	// Poisson arrivals: expect ≈ rate × horizon tuples per stream.
	if a := counts["A"]; a < 400 || a > 800 {
		t.Fatalf("stream A tuples = %d, want ≈600", a)
	}
	if b := counts["B"]; b < 75 || b > 250 {
		t.Fatalf("stream B tuples = %d, want ≈150", b)
	}
}
