// Command rldperf is the repository's benchmark: four deterministic
// workloads — a 2×2 of feed × extra layer — each measured serial-first
// (one batch in flight) so the numbers repeat on a small shared machine.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash bench/run.sh                                all workloads, end-to-end metrics
//	bash bench/run.sh -workload net_join -trace 1    per-layer metrics and budget table
//	bash bench/run.sh -check                         outputs against the reference join only
//	bash bench/run.sh -aa 5                          A/A: five runs per workload, spread per metric
//
// The driver's form is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of output is one JSON object: correct, attempted, failed,
// metrics. See bench/README.md for what each metric means and why the
// harness is shaped the way it is.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rld"
)

// outDir holds traces and write-ahead logs; git ignores it.
var outDir = filepath.Join("bench", "out")

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	rld.MaybeWorker()

	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed the feed is generated from")
	seconds := flag.Float64("seconds", 25, "measuring time per workload")
	trace := flag.Int("trace", 0, "1: traced pass, per-layer metrics and budget table")
	check := flag.Bool("check", false, "only compare outputs against the reference join")
	verbose := flag.Bool("v", false, "print every segment with the calibration burst next to it")
	aa := flag.Int("aa", 0, "A/A mode: run every workload N times and report the spread per metric")
	flag.Parse()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	cpu, err := pinToOneCPU()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("rldperf: everything runs on CPU %d\n", cpu)
	// Fill the reference burst's table, so that every timed burst runs
	// against the same steady state.
	for i := 0; i < 8; i++ {
		calibrate()
	}

	var chosen []*spec
	if *workload == "all" {
		for i := range specs {
			chosen = append(chosen, &specs[i])
		}
	} else if s := findSpec(*workload); s != nil {
		chosen = []*spec{s}
	} else {
		fatalf("unknown workload %q", *workload)
	}

	if *aa > 0 {
		os.Exit(runAA(chosen, *aa, *seconds))
	}

	ctx := context.Background()
	ok := true
	for _, s := range chosen {
		line := runWorkload(ctx, s, *seed, *seconds, *trace == 1, *check, *verbose)
		raw, err := json.Marshal(line)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(raw))
		ok = ok && line.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs one workload once and prints its report. The output
// check always runs first; with checkOnly nothing is timed.
func runWorkload(ctx context.Context, s *spec, seed int64, seconds float64, traced, checkOnly, verbose bool) resultLine {
	fmt.Printf("== %s (seed %d): %s\n", s.name, seed, s.why)
	r, err := newRun(ctx, s, seed)
	if err != nil {
		fatalf("%v", err)
	}
	defer r.cleanup()
	fmt.Printf("  feed: %v\n", r.feed)

	line := resultLine{Metrics: map[string]metric{}}
	if err := r.check(); err != nil {
		r.fail("check: %v", err)
	} else {
		fmt.Printf("  check: outputs equal the reference join\n")
	}
	switch {
	case checkOnly:
	case traced:
		m, err := runTraced(r, seconds)
		if err != nil {
			r.fail("%v", err)
		}
		line.Metrics = m
	default:
		e, err := runE2E(r, seconds)
		if err != nil {
			r.fail("%v", err)
		} else {
			e.print(r, verbose)
			line.Metrics = e.metrics
		}
	}
	for _, n := range r.notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", r.attempted, r.failed)
	line.Attempted, line.Failed = r.attempted, r.failed
	line.Correct = r.failed == 0
	return line
}
