package gen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rld/internal/stream"
)

func TestUniformSummaryMatchesTable2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = (Uniform{A: 0, B: 100}).Sample(rng)
	}
	s := Summarize(xs)
	// Table 2: mean 49.7, med 49.0, st.dev 29.14, var 849.18, skew 0.05,
	// kurt -1.18, ave.dev 25.2. Check against analytic values with slack.
	if math.Abs(s.Mean-50) > 0.5 {
		t.Fatalf("mean = %.2f, want ≈50", s.Mean)
	}
	if math.Abs(s.Median-50) > 1 {
		t.Fatalf("median = %.2f, want ≈50", s.Median)
	}
	if math.Abs(s.StdDev-28.87) > 0.5 {
		t.Fatalf("stdev = %.2f, want ≈28.87", s.StdDev)
	}
	if math.Abs(s.Skew) > 0.05 {
		t.Fatalf("skew = %.3f, want ≈0", s.Skew)
	}
	if math.Abs(s.Kurt-(-1.2)) > 0.1 {
		t.Fatalf("kurt = %.3f, want ≈-1.2", s.Kurt)
	}
	if math.Abs(s.AveDev-25) > 0.5 {
		t.Fatalf("avedev = %.2f, want ≈25", s.AveDev)
	}
}

func TestPoissonSummaryMatchesTable2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = (Poisson{Lambda: 1}).Sample(rng)
	}
	s := Summarize(xs)
	// Table 2: mean 0.97, st.dev 1.01, var 1.02, skew 1.17, kurt 1.89.
	// Analytic: mean 1, var 1, skew 1, excess kurt 1.
	if math.Abs(s.Mean-1) > 0.02 {
		t.Fatalf("mean = %.3f, want ≈1", s.Mean)
	}
	if math.Abs(s.Var-1) > 0.03 {
		t.Fatalf("var = %.3f, want ≈1", s.Var)
	}
	if math.Abs(s.Skew-1) > 0.05 {
		t.Fatalf("skew = %.3f, want ≈1", s.Skew)
	}
	if s.Min != 0 {
		t.Fatalf("min = %v, want 0", s.Min)
	}
}

func TestPoissonLargeLambdaNormalApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = (Poisson{Lambda: 100}).Sample(rng)
	}
	s := Summarize(xs)
	if math.Abs(s.Mean-100) > 1 {
		t.Fatalf("mean = %.2f, want ≈100", s.Mean)
	}
	if math.Abs(s.Var-100) > 5 {
		t.Fatalf("var = %.2f, want ≈100", s.Var)
	}
}

func TestPoissonDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if v := (Poisson{Lambda: 0}).Sample(rng); v != 0 {
		t.Fatalf("Poisson(0) = %v, want 0", v)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := Exponential{Rate: 2} // Table 2: µ=500ms → rate 2/s
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += e.Sample(rng)
	}
	if got := sum / float64(n); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("mean gap = %.4f, want ≈0.5", got)
	}
	if !math.IsInf(Exponential{}.Mean(), 1) {
		t.Fatal("zero-rate exponential mean should be +Inf")
	}
}

func TestNormalDist(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := Normal{Mu: 5, Sigma: 2}
	if n.Mean() != 5 {
		t.Fatal("mean accessor wrong")
	}
	sum := 0.0
	for i := 0; i < 50000; i++ {
		sum += n.Sample(rng)
	}
	if got := sum / 50000; math.Abs(got-5) > 0.05 {
		t.Fatalf("sampled mean %.3f, want ≈5", got)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
	s := Summarize([]float64{42})
	if s.Mean != 42 || s.Median != 42 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("single-value summary wrong: %+v", s)
	}
	if s.StdDev != 0 || s.Skew != 0 {
		t.Fatal("degenerate summary should have zero spread/skew")
	}
}

func TestStepProfile(t *testing.T) {
	p := StepProfile{Times: []float64{1200, 2400}, Vals: []float64{1, 2, 4}}
	cases := []struct{ t, want float64 }{
		{0, 1}, {1199, 1}, {1200, 2}, {2399, 2}, {2400, 4}, {9999, 4},
	}
	for _, c := range cases {
		if got := p.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if (StepProfile{}).At(5) != 0 {
		t.Fatal("empty step profile should be 0")
	}
}

func TestSquareProfile(t *testing.T) {
	p := SquareProfile{Lo: 1, Hi: 3, Period: 10}
	if p.At(0) != 3 || p.At(9.9) != 3 {
		t.Fatal("first half-period should be Hi")
	}
	if p.At(10) != 1 || p.At(19.9) != 1 {
		t.Fatal("second half-period should be Lo")
	}
	if p.At(20) != 3 {
		t.Fatal("wave should repeat")
	}
	if (SquareProfile{Lo: 1, Hi: 3}).At(5) != 3 {
		t.Fatal("zero period should pin Hi")
	}
	// Negative times must not panic and must stay within {Lo, Hi}.
	if v := p.At(-3); v != 1 && v != 3 {
		t.Fatalf("At(-3) = %v, outside {1,3}", v)
	}
}

func TestSineAndScaledAndClamped(t *testing.T) {
	s := SineProfile{Base: 2, Amp: 1, Period: 4}
	if got := s.At(1); math.Abs(got-3) > 1e-9 {
		t.Fatalf("sine peak = %v, want 3", got)
	}
	if (SineProfile{Base: 2}).At(3) != 2 {
		t.Fatal("zero-period sine should be Base")
	}
	sc := Scaled{Inner: ConstProfile(2), Factor: 3}
	if sc.At(0) != 6 {
		t.Fatal("Scaled wrong")
	}
	cl := Clamped{Inner: ConstProfile(5), Lo: 0, Hi: 1}
	if cl.At(0) != 1 {
		t.Fatal("Clamped Hi wrong")
	}
	cl = Clamped{Inner: ConstProfile(-5), Lo: 0, Hi: 1}
	if cl.At(0) != 0 {
		t.Fatal("Clamped Lo wrong")
	}
}

func TestKeyDistSelectivityTracksTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, target := range []float64{0.05, 0.2, 0.5, 0.9} {
		kd := KeyDist{Target: ConstProfile(target), Cold: 10000}
		// Empirical match probability of two independent draws.
		const n = 60000
		a := make([]int64, n)
		b := make([]int64, n)
		for i := 0; i < n; i++ {
			a[i] = kd.Draw(rng, 0)
			b[i] = kd.Draw(rng, 0)
		}
		matches := 0
		for i := 0; i < n; i++ {
			if a[i] == b[i] {
				matches++
			}
		}
		got := float64(matches) / n
		if math.Abs(got-target) > 0.03+0.05*target {
			t.Fatalf("target %v: empirical selectivity %.4f", target, got)
		}
		if an := kd.Selectivity(0); math.Abs(an-target) > 0.01 {
			t.Fatalf("target %v: analytic selectivity %.4f", target, an)
		}
	}
}

func TestKeyDistEdgeCases(t *testing.T) {
	kd := KeyDist{Target: ConstProfile(1), Cold: 100}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		if kd.Draw(rng, 0) != 0 {
			t.Fatal("selectivity 1 must always draw the hot key")
		}
	}
	kd = KeyDist{Target: ConstProfile(0), Cold: 100}
	for i := 0; i < 100; i++ {
		if kd.Draw(rng, 0) == 0 {
			t.Fatal("selectivity ≤ floor must never draw the hot key")
		}
	}
	if (KeyDist{}).Selectivity(0) != 0 {
		t.Fatal("nil target selectivity should be 0")
	}
	// Zero-value KeyDist must still draw from a sane domain.
	v := (KeyDist{}).Draw(rng, 0)
	if v < 1 || v > 10000 {
		t.Fatalf("zero KeyDist drew %d, want cold key in [1,10000]", v)
	}
}

// Property: hotProb inverts the selectivity equation across the valid range.
func TestKeyDistHotProbQuick(t *testing.T) {
	f := func(raw uint16) bool {
		delta := float64(raw%1000)/1000*0.98 + 0.01
		kd := KeyDist{Target: ConstProfile(delta), Cold: 10000}
		q := kd.hotProb(delta)
		cold := 10000.0
		back := q*q + (1-q)*(1-q)/cold
		return math.Abs(back-delta) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// next draws src's next tuple through AppendNext.
func next(src *Source) (stream.Tuple, bool) {
	b := stream.NewSizedBatch(src.Name, src.Arity(), 1)
	if !src.AppendNext(b) {
		return stream.Tuple{}, false
	}
	return b.TupleAt(0), true
}

// generate draws src's tuples up to application time horizon.
func generate(src *Source, horizon float64) []stream.Tuple {
	var out []stream.Tuple
	for src.Now() < horizon {
		tu, ok := next(src)
		if !ok || float64(tu.Ts) > horizon {
			break
		}
		out = append(out, tu)
	}
	return out
}

func TestSourcePoissonRate(t *testing.T) {
	src := NewSource("S", ConstProfile(10), KeyDist{Target: ConstProfile(0.5), Cold: 100}, Uniform{0, 100}, 42)
	tuples := generate(src, 200)
	rate := float64(len(tuples)) / 200
	if math.Abs(rate-10) > 0.8 {
		t.Fatalf("empirical rate %.2f, want ≈10", rate)
	}
	// Timestamps must be non-decreasing and sequences consecutive.
	for i := 1; i < len(tuples); i++ {
		if tuples[i].Ts < tuples[i-1].Ts {
			t.Fatal("timestamps out of order")
		}
		if tuples[i].Seq != tuples[i-1].Seq+1 {
			t.Fatal("sequence gap")
		}
	}
	if len(tuples) == 0 || src.Now() < 200 {
		t.Fatalf("source state wrong: emitted=%d now=%v", len(tuples), src.Now())
	}
}

func TestSourceRespectsStepProfile(t *testing.T) {
	// 2 t/s for 100 s, then 20 t/s for 100 s.
	p := StepProfile{Times: []float64{100}, Vals: []float64{2, 20}}
	src := NewSource("S", p, KeyDist{}, nil, 9)
	tuples := generate(src, 200)
	var lo, hi int
	for _, tu := range tuples {
		if float64(tu.Ts) < 100 {
			lo++
		} else {
			hi++
		}
	}
	if lo < 120 || lo > 280 {
		t.Fatalf("low-rate phase count %d, want ≈200", lo)
	}
	if hi < 1700 || hi > 2300 {
		t.Fatalf("high-rate phase count %d, want ≈2000", hi)
	}
}

func TestSourceZeroRateSkipsForward(t *testing.T) {
	p := StepProfile{Times: []float64{50}, Vals: []float64{0, 10}}
	src := NewSource("S", p, KeyDist{}, nil, 10)
	tu, ok := next(src)
	if !ok {
		t.Fatal("source should eventually produce once rate becomes positive")
	}
	if float64(tu.Ts) < 50 {
		t.Fatalf("first tuple at %v, want ≥50 (idle phase)", tu.Ts)
	}
}

func TestSourceWidthAndValues(t *testing.T) {
	src := NewSource("S", ConstProfile(5), KeyDist{}, Uniform{0, 1}, 11)
	src.Width = 3
	tu, _ := next(src)
	if len(tu.Vals) != 3 {
		t.Fatalf("width = %d, want 3", len(tu.Vals))
	}
	src2 := NewSource("S", ConstProfile(5), KeyDist{}, nil, 12)
	tu2, _ := next(src2)
	if len(tu2.Vals) != 0 {
		t.Fatal("nil Values should yield empty payload")
	}
}

func TestDefaultConfigTable2(t *testing.T) {
	c := DefaultConfig()
	if c.MeanInterArrivalMS != 500 {
		t.Fatalf("µ = %v ms, want 500", c.MeanInterArrivalMS)
	}
	if c.MaxDequeue != 1000 {
		t.Fatalf("|Tdq| = %d, want 1000", c.MaxDequeue)
	}
	if c.RusterSize != 100 {
		t.Fatalf("ruster = %d, want 100", c.RusterSize)
	}
	if c.BaseRate != 2 {
		t.Fatalf("base rate = %v, want 2 t/s", c.BaseRate)
	}
	scaled := c.WithRate(4)
	if scaled.BaseRate != 8 || scaled.MeanInterArrivalMS != 125 {
		t.Fatalf("WithRate wrong: %+v", scaled)
	}
}

func TestStockFeedRegimeInversion(t *testing.T) {
	cfg := DefaultConfig()
	srcs := StockFeed(cfg, 100, 1)
	if len(srcs) != len(StockFeedNames) {
		t.Fatalf("got %d sources, want %d", len(srcs), len(StockFeedNames))
	}
	// Selectivity of stream 0 must differ materially (≥3×) between bull
	// and bear phases.
	kd := srcs[0].Keys
	bull := kd.Selectivity(10)  // first half-period
	bear := kd.Selectivity(110) // second half-period
	hi, lo := math.Max(bull, bear), math.Min(bull, bear)
	if lo <= 0 || hi/lo < 3 {
		t.Fatalf("regime flip too weak: bull=%.4f bear=%.4f", bull, bear)
	}
}

func TestRegimeProfile(t *testing.T) {
	r := RegimeProfile{BullVal: 0.7, BearVal: 0.2, Period: 10}
	if r.At(5) != 0.7 || r.Regime(5) != Bull {
		t.Fatal("expected bull phase")
	}
	if r.At(15) != 0.2 || r.Regime(15) != Bear {
		t.Fatal("expected bear phase")
	}
	if (RegimeProfile{BullVal: 1}).Regime(99) != Bull {
		t.Fatal("zero period pins Bull")
	}
}

func TestSensorFeed(t *testing.T) {
	srcs := SensorFeed(DefaultConfig(), 20, 3)
	if len(srcs) != len(SensorFeedNames) {
		t.Fatalf("got %d sensor sources", len(srcs))
	}
	tu, ok := next(srcs[0])
	if !ok || len(tu.Vals) != 1 {
		t.Fatalf("sensor tuple malformed: %v", tu)
	}
	// Random-walk readings should be serially correlated: successive
	// deltas bounded by the step.
	prev := tu.Vals[0]
	for i := 0; i < 50; i++ {
		nxt, _ := next(srcs[0])
		if d := math.Abs(nxt.Vals[0] - prev); d > 0.5+1e-9 {
			t.Fatalf("random walk jumped %v > step", d)
		}
		prev = nxt.Vals[0]
	}
}
