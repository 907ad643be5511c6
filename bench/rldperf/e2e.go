package main

import (
	"fmt"
	"time"
)

// metric is one named measurement of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	// setupSamples is about how many times a run sets a pipeline up: once
	// for pipeline A and then at even intervals between rounds, so set-up
	// time, too, samples the whole run and not just the process's first,
	// coldest second.
	setupSamples = 40
	// minLatencySamples is how many paced batches must emit before a run
	// may end. A batch that legitimately joins nothing gives no sample.
	minLatencySamples = 2000
)

// endToEnd is every end-to-end metric an untraced run reports — the
// end_to_end list of BENCHMARK.json, which also fixes each one's bound. All
// four read at reference speed: each segment, cycle and set-up is scaled by
// the reference burst run right after it (see calibrate) before the median
// is taken, because the raw numbers follow the host's load, 20–30 % up and
// down between runs of the same code.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"tuples_per_s", "tuples/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"recover_ms", "ms", "lower"},
}

// e2eResult carries the untraced run's segments, kept for the printed
// report next to the reduced metrics.
type e2eResult struct {
	setups  []setup
	serial  []segment
	cycles  []cycle
	paced   []segment
	metrics map[string]metric
	// raw holds the same medians before scaling, for the printed report.
	raw map[string]float64
}

// setup is one set-up sample: seconds, and the reference burst after it.
type setup struct{ seconds, calibMS float64 }

// runE2E measures the end-to-end metrics, tracing off, on three
// pipelines held open side by side: A at depth 1 for serial segments, R at
// depth 1 under the scripted crash plan, B at the default depth for paced
// segments. The harness takes one step on each in turn until the budget is
// spent, so every metric samples the whole run: the sandbox's speed shifts
// for seconds at a time, and a phase measured in one block would inherit
// whatever the machine was doing during that block.
func runE2E(r *run, seconds float64) (*e2eResult, error) {
	s := r.spec
	res := &e2eResult{}

	a, err := r.openWarm(1, s.steadyFaults())
	if err != nil {
		return nil, err
	}
	res.setups = append(res.setups, setup{a.setup, a.setupBurstMS})
	plan := s.recoveryPlan(crashNode(a.dep))
	rp, err := r.openWarm(1, plan)
	if err != nil {
		return nil, err
	}
	b, err := r.openWarm(0, s.steadyFaults())
	if err != nil {
		return nil, err
	}

	// One round is a step on each pipeline. Rounds go on until the budget
	// is spent and the latency sample is large enough to mean something.
	start := time.Now()
	length := time.Duration(seconds * float64(time.Second))
	samples := 0
	for k := 0; time.Since(start) < length || samples < minLatencySamples; k++ {
		if time.Since(start) >= length*time.Duration(len(res.setups))/setupSamples {
			// One more set-up of pipeline A's configuration, closed at once.
			extra, err := r.openWarm(1, s.steadyFaults())
			if err != nil {
				return nil, err
			}
			res.setups = append(res.setups, setup{extra.setup, extra.setupBurstMS})
			extra.close()
		}
		res.serial = append(res.serial, a.closedSegment())
		seg := b.pacedSegment()
		samples += len(seg.latMS)
		res.paced = append(res.paced, seg)
		if c, ok := rp.recoveryCycle(plan, k); ok {
			res.cycles = append(res.cycles, c)
		}
	}
	a.close()
	rp.close()
	b.close()

	// The serial ratio is exact work at depth 1; a paced pipeline may see a
	// few later inserts per probe, no more.
	serialRatio := resultsPerTuple(res.serial)
	if pr := resultsPerTuple(res.paced); pr < 0.85*serialRatio || pr > 1.15*serialRatio {
		r.fail("paced results/tuple %.4f outside ±15%% of serial %.4f", pr, serialRatio)
	}

	// Every sample is scaled to reference speed before the median is taken.
	raw, scaled := map[string][]float64{}, map[string][]float64{}
	add := func(name string, x, atRef float64) {
		raw[name] = append(raw[name], x)
		scaled[name] = append(scaled[name], atRef)
	}
	for _, x := range res.setups {
		add("setup_s", x.seconds, x.seconds/slowdown(x.calibMS))
	}
	for _, g := range res.serial {
		add("tuples_per_s", g.tuplesPerSec(), g.tuplesPerSec()*slowdown(g.calibMS))
	}
	for _, g := range res.paced {
		if len(g.latMS) > 0 {
			add("latency_p50_ms", median(g.latMS), median(g.latMS)/slowdown(g.calibMS))
		}
	}
	for _, c := range res.cycles {
		add("recover_ms", ms(c.recover), ms(c.recover)/slowdown(c.calibMS))
	}
	res.metrics = map[string]metric{}
	res.raw = map[string]float64{}
	for _, e := range endToEnd {
		res.metrics[e.name] = metric{median(scaled[e.name]), e.unit}
		res.raw[e.name] = median(raw[e.name])
	}
	return res, nil
}

func resultsPerTuple(segs []segment) float64 {
	var res, tup float64
	for _, g := range segs {
		res += float64(g.results)
		tup += float64(g.tuples)
	}
	return res / tup
}

// print writes the human-readable report of the untraced run; verbose adds
// one line per segment with the calibration burst measured next to it.
func (e *e2eResult) print(r *run, verbose bool) {
	var calib, tps []float64
	for _, g := range e.serial {
		calib = append(calib, g.calibMS)
		tps = append(tps, g.tuplesPerSec())
	}
	lat := 0
	for _, g := range e.paced {
		lat += len(g.latMS)
	}
	fmt.Printf("  at reference speed (each sample scaled by the %.2f ms reference burst run next to it); raw medians on the right\n", refBurstMS)
	fmt.Printf("  setup_s           %10.4f s        raw %.4f; median of %d set-ups (Optimize + Open + warm-up)\n", e.metrics["setup_s"].Value, e.raw["setup_s"], len(e.setups))
	fmt.Printf("  tuples_per_s      %10.0f tuples/s raw %.0f (min %.0f, max %.0f); serial, depth 1; median of %d segments\n", e.metrics["tuples_per_s"].Value, e.raw["tuples_per_s"], minOf(tps), maxOf(tps), len(e.serial))
	fmt.Printf("  latency_p50_ms    %10.4f ms       raw %.4f; paced at %.0f batches/s, from due time; median of %d segment p50s, %d samples\n", e.metrics["latency_p50_ms"].Value, e.raw["latency_p50_ms"], r.spec.pacedRate, len(e.paced), lat)
	fmt.Printf("  recover_ms        %10.4f ms       raw %.4f; Ingest crossing the recovery edge; median of %d cycles\n", e.metrics["recover_ms"].Value, e.raw["recover_ms"], len(e.cycles))
	fmt.Printf("  calib             %10.4f ms       reference burst next to each serial segment, median (min %.4f)\n", median(calib), minOf(calib))
	if verbose {
		for _, g := range e.serial {
			fmt.Printf("  seg serial %.0f tuples/s, %.4f cpu us/tuple, calib %.4f ms\n", g.tuplesPerSec(), g.cpuUsPerTuple(), g.calibMS)
		}
		for _, g := range e.paced {
			fmt.Printf("  seg paced p50 %.4f ms, late p50 %.4f ms, calib %.4f ms, %d samples\n", median(g.latMS), median(g.lateMS), g.calibMS, len(g.latMS))
		}
		for _, c := range e.cycles {
			fmt.Printf("  seg cycle crash %.4f ms, recover %.4f ms, catch-up %.4f ms, calib %.4f ms\n", ms(c.crash), ms(c.recover), ms(c.catchup), c.calibMS)
		}
		for _, x := range e.setups {
			fmt.Printf("  seg setup %.4f s, calib %.4f ms\n", x.seconds, x.calibMS)
		}
	}
}
