package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// Shares of the -seconds budget in a traced run. The layer replays run
// outside it; they are bounded by batch counts.
const (
	tracedSerialShare = 0.15 // each of the untraced and the traced pass
	tracedPacedShare  = 0.25
	pipelinedShare    = 0.10
	tracedRecShare    = 0.15
	// pipelinedDepth is the closed-loop depth of the pipelined phase.
	pipelinedDepth = 8
	// maxTracedBatches bounds each traced pass, and with it the trace file.
	maxTracedBatches = 20000
)

// layerMetrics is every per-layer metric a traced run reports, with its
// unit and which way is better — the per_layer list of BENCHMARK.json.
var layerMetrics = []struct{ name, unit, better string }{
	{"stream.probe_ns_per_tuple", "ns", "lower"},
	{"stream.matches_per_probe", "count", "lower"},
	{"stream.window_rows", "count", "lower"},
	{"stream.insert_ns_per_tuple", "ns", "lower"},
	{"stream.expire_ns_per_tuple", "ns", "lower"},
	{"stream.snapshot_ms", "ms", "lower"},
	{"engine.insert_ns_per_tuple", "ns", "lower"},
	{"engine.stage_select_ns_per_tuple", "ns", "lower"},
	{"engine.stage_join_ns_per_tuple", "ns", "lower"},
	{"engine.ingest_us_per_batch", "us", "lower"},
	{"engine.batch_rtt_us", "us", "lower"},
	{"engine.results_per_tuple", "count", "higher"},
	{"session.admit_us_per_batch", "us", "lower"},
	{"session.wait_us_per_batch", "us", "lower"},
	{"session.edge_us", "us", "lower"},
	{"session.edges", "count", "lower"},
	{"core.classify_ns", "ns", "lower"},
	{"core.plan_switches", "count", "lower"},
	{"core.plans_used", "count", "higher"},
	{"core.optimize_ms", "ms", "lower"},
	{"wire.encode_ns_per_tuple", "ns", "lower"},
	{"wire.decode_ns_per_tuple", "ns", "lower"},
	{"wire.bytes_per_tuple", "B", "lower"},
	{"netrt.batch_rtt_us", "us", "lower"},
	{"netrt.hop_tax_us", "us", "lower"},
	{"netrt.spawn_ms", "ms", "lower"},
	{"netrt.respawn_ms", "ms", "lower"},
	{"netrt.checkpoint_ms", "ms", "lower"},
	{"wal.append_us_per_batch", "us", "lower"},
	{"wal.sync_us", "us", "lower"},
	{"wal.syncs_per_batch", "count", "lower"},
	{"wal.bytes_per_tuple", "B", "lower"},
	{"wal.barrier_ms", "ms", "lower"},
	{"wal.replay_ms_per_ktuple", "ms", "lower"},
	{"serial.cpu_us_per_tuple", "us", "lower"},
	{"pipelined.tuples_per_s", "tuples/s", "higher"},
	{"paced.latency_p90_ms", "ms", "lower"},
	{"paced.latency_p99_ms", "ms", "lower"},
	{"serial.latency_p99_ms", "ms", "lower"},
	{"recover.crash_ms", "ms", "lower"},
	{"recover.catchup_ms", "ms", "lower"},
	{"checkpoint.ms", "ms", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"gen.us_per_batch", "us", "lower"},
	{"calib.ms_p50", "ms", "lower"},
	{"calib.ms_min", "ms", "lower"},
	{"norm.tuples_per_s", "tuples/s", "higher"},
	{"proc.allocs_per_batch", "count", "lower"},
	{"proc.alloc_bytes_per_tuple", "B", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.gc_cpu_us_per_batch", "us", "lower"},
	{"proc.rss_mb", "MiB", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"budget.explained_frac", "ratio", "higher"},
}

// runTraced is the traced pass: the layer replays, then the phases again
// with spans around every call the harness makes, the budget table, and the
// diagnostics that are too noisy to gate. Its serial numbers are measured
// twice, tracing off and on, and the difference is the tracing overhead.
func runTraced(r *run, seconds float64) (map[string]metric, error) {
	s := r.spec
	out := layerSet{}
	budget := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }

	genUs := replayGen(r.feed, out)
	replayStream(r.feed, out)
	insertUs, stageUs, err := replayNodeCore(r.feed, out)
	if err != nil {
		return nil, fmt.Errorf("nodecore replay: %w", err)
	}
	if err := replayWire(r.feed, out); err != nil {
		return nil, err
	}
	walUs, err := replayWAL(r.feed, outDir, out)
	if err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}

	// Pipeline A, depth 1: serial untraced, then serial traced.
	a, err := r.openWarm(1, s.steadyFaults())
	if err != nil {
		return nil, err
	}
	out.put("core.optimize_ms", a.optimizeMS, "ms")
	classifyUs := replayClassify(a.dep, out)
	engineRTT, err := replayEngine(r.feed, a.dep, out)
	if err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}
	if err := replayCluster(r.feed, a.dep, engineRTT, out); err != nil {
		return nil, fmt.Errorf("cluster replay: %w", err)
	}

	mem0 := readMem()
	batches0 := a.next
	var serial, traced, paced, pipelined []segment
	repeat(budget(tracedSerialShare), 8, func() { serial = append(serial, a.closedSegment()) })
	mem1 := readMem()
	serialBatches := float64(a.next - batches0)
	r.trace = newTracer()
	tracedFrom := a.next
	repeat(budget(tracedSerialShare), 4, func() {
		if a.next-tracedFrom < maxTracedBatches {
			traced = append(traced, a.closedSegment())
		}
	})
	serialSpans := len(r.trace.spans)
	node := crashNode(a.dep)
	rep := a.close()

	// Pipeline B, default depth: paced, traced.
	b, err := r.openWarm(0, s.steadyFaults())
	if err != nil {
		return nil, err
	}
	tr := r.trace
	tracedFrom = b.next
	repeat(budget(tracedPacedShare), 8, func() {
		if b.next-tracedFrom >= maxTracedBatches {
			r.trace = nil
		}
		paced = append(paced, b.pacedSegment())
	})
	b.close()
	r.trace = nil

	// Pipeline P, depth 8: the pipelined closed loop.
	p, err := r.openWarm(pipelinedDepth, s.steadyFaults())
	if err != nil {
		return nil, err
	}
	repeat(budget(pipelinedShare), 4, func() { pipelined = append(pipelined, p.closedSegment()) })
	p.close()

	// Pipeline R, depth 1: scripted crashes.
	plan := s.recoveryPlan(node)
	rp, err := r.openWarm(1, plan)
	if err != nil {
		return nil, err
	}
	var cycles []cycle
	k := 0
	repeat(budget(tracedRecShare), 5, func() {
		if c, ok := rp.recoveryCycle(plan, k); ok {
			cycles = append(cycles, c)
		}
		k++
	})
	rp.close()

	var tps, cpu, tracedTps, pipeTps, calib, serialLat, pacedLat, late, crash, catchup []float64
	for _, g := range serial {
		tps = append(tps, g.tuplesPerSec())
		cpu = append(cpu, g.cpuUsPerTuple())
		calib = append(calib, g.calibMS)
		serialLat = append(serialLat, g.latMS...)
	}
	for _, g := range traced {
		tracedTps = append(tracedTps, g.tuplesPerSec())
	}
	for _, g := range pipelined {
		pipeTps = append(pipeTps, g.tuplesPerSec())
	}
	for _, g := range paced {
		pacedLat = append(pacedLat, g.latMS...)
		late = append(late, g.lateMS...)
	}
	for _, c := range cycles {
		crash = append(crash, ms(c.crash))
		catchup = append(catchup, ms(c.catchup))
	}
	// norm.tuples_per_s is this pass's serial throughput at reference
	// speed, scaled as the end-to-end tuples_per_s is.
	var norm []float64
	for _, g := range serial {
		norm = append(norm, g.tuplesPerSec()*slowdown(g.calibMS))
	}

	out.put("engine.results_per_tuple", resultsPerTuple(serial), "count")
	if rep != nil {
		out.put("core.plan_switches", float64(rep.PlanSwitches), "count")
		out.put("core.plans_used", float64(len(rep.PlanUse)), "count")
	}
	out.put("serial.cpu_us_per_tuple", median(cpu), "us")
	out.put("pipelined.tuples_per_s", median(pipeTps), "tuples/s")
	out.put("norm.tuples_per_s", median(norm), "tuples/s")
	out.put("calib.ms_p50", median(calib), "ms")
	out.put("calib.ms_min", minOf(calib), "ms")
	out.put("recover.crash_ms", median(crash), "ms")
	out.put("recover.catchup_ms", median(catchup), "ms")
	for name, xs := range map[string][]float64{"serial.latency_p99_ms": serialLat, "paced.latency_p99_ms": pacedLat, "gen.late_ms_p99": late} {
		v, err := percentile(xs, 99)
		if err != nil {
			r.fail("%s: %v (%d samples)", name, err, len(xs))
		}
		out.put(name, v, "ms")
	}
	p90, err := percentile(pacedLat, 90)
	if err != nil {
		r.fail("paced.latency_p90_ms: %v", err)
	}
	out.put("paced.latency_p90_ms", p90, "ms")
	out.put("proc.allocs_per_batch", float64(mem1.mallocs-mem0.mallocs)/serialBatches, "count")
	out.put("proc.alloc_bytes_per_tuple", float64(mem1.bytes-mem0.bytes)/serialBatches/float64(s.batch), "B")
	out.put("proc.gc_pause_ms", float64(mem1.pauseNs-mem0.pauseNs)/1e6, "ms")
	gcUs := (mem1.gcCPU - mem0.gcCPU) * 1e6 / serialBatches
	out.put("proc.gc_cpu_us_per_batch", gcUs, "us")
	out.put("proc.rss_mb", rssMB(), "MiB")
	overhead := (median(tps) - median(tracedTps)) / median(tps)
	out.put("trace.overhead_frac", overhead, "ratio")
	sessionMetrics(tr, serialSpans, out)

	// The budget: what the layers cost per batch, replayed alone, against
	// what one batch takes end to end with nothing else in flight.
	service := 1e6 * float64(s.batch) / median(tps)
	type row struct {
		name string
		us   float64
	}
	rows := []row{
		{"gen (rebase one batch)", genUs},
		{"core.classify", classifyUs},
		{"engine insert (NodeCore.Insert)", insertUs},
		{"engine stages (NodeCore.ProcessStage)", stageUs},
		{"engine hand-off (bare Ingest→Drain − the three above)", engineRTT - classifyUs - insertUs - stageUs},
	}
	if s.durable {
		rows = append(rows, row{"wal append + sync", walUs})
	}
	if s.distributed {
		rows = append(rows, row{"netrt hops (bare cluster − bare engine)", out["netrt.batch_rtt_us"].Value - engineRTT})
	}
	rows = append(rows, row{"gc (collector CPU, serial phase)", gcUs})
	sum := 0.0
	fmt.Printf("  budget, µs per batch (serial service time %.2f µs, depth 1, tracing off):\n", service)
	for _, row := range rows {
		fmt.Printf("    %-54s %9.2f  %5.1f %%\n", row.name, row.us, 100*row.us/service)
		sum += row.us
	}
	fmt.Printf("    %-54s %9.2f  %5.1f %%\n", "explained", sum, 100*sum/service)
	fmt.Printf("    %-54s %9.2f  %5.1f %%\n", "remainder (session, result delivery to the subscriber)", service-sum, 100*(service-sum)/service)
	fmt.Printf("  tracing overhead: %.0f tuples/s traced vs %.0f untraced (%.1f %%)\n", median(tracedTps), median(tps), 100*overhead)
	out.put("budget.explained_frac", sum/service, "ratio")

	path := filepath.Join(outDir, "trace_"+s.name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("  trace: %d spans in %s\n", len(tr.spans), path)
	tr.printSelfTimes()

	final := map[string]metric{}
	fmt.Printf("  per-layer metrics:\n")
	for _, m := range layerMetrics {
		v, ok := out[m.name]
		if !ok {
			r.fail("per-layer metric %s was not measured", m.name)
		}
		final[m.name] = metric{v.Value, m.unit}
		fmt.Printf("    %-34s %14.4f %s\n", m.name, v.Value, m.unit)
	}
	return final, nil
}

// sessionMetrics reduces the spans to the session layer's numbers: what an
// admitted TryIngest costs, how long a refused offer then waits, and what
// crossing a tick or checkpoint edge adds. Spans up to serialSpans belong
// to the serial pass, the rest to the paced pass.
func sessionMetrics(t *tracer, serialSpans int, out layerSet) {
	var admit, wait, offer, edge timer
	for i, sp := range t.spans {
		d := time.Duration(sp.EndNs - sp.StartNs)
		plainParent := sp.Parent >= 0 && t.spans[sp.Parent].Name == "offer"
		switch {
		case sp.Name == "session.admit" && plainParent:
			admit.add(d, 1)
		case sp.Name == "session.wait" && plainParent && i < serialSpans:
			wait.add(d, 1)
		case sp.Name == "offer" && i < serialSpans:
			offer.add(d, 1)
		case sp.Name == "offer.edge" && i < serialSpans:
			edge.add(d, 1)
		}
	}
	out.put("session.admit_us_per_batch", admit.per()/1e3, "us")
	out.put("session.wait_us_per_batch", float64(wait.ns)/1e3/float64(max(offer.units, 1)), "us")
	out.put("session.edge_us", (edge.per()-offer.per())/1e3, "us")
	out.put("session.edges", float64(edge.units), "count")
}
