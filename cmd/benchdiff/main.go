// Command benchdiff is the CI allocation-regression gate. It has two
// modes:
//
//	benchdiff -parse bench.txt -out BENCH_PR.json
//
// parses `go test -bench` text output into a JSON map of benchmark name →
// {allocs_per_op}, keeping the minimum across -count repetitions and
// skipping benchmarks that report no allocations (missing b.ReportAllocs),
// and
//
//	benchdiff -old BENCH_BASELINE.json -new BENCH_PR.json \
//	    -max-alloc-regress 0.25
//
// compares two such files and exits non-zero if any benchmark present in
// both allocates more per op than the threshold allows. Allocations per op
// are machine-independent, so they are compared raw, with a small absolute
// slack so benchmarks with tiny baselines don't fail on ±1-alloc noise.
// Benchmarks present in only one file are reported but never fail the gate
// (sub-benchmark names such as workers=GOMAXPROCS legitimately vary across
// machines).
//
// Time is not gated here: ns/op from a shared CI runner does not compare
// with a baseline from another machine, and bench/rldperf referees time per
// change on one pinned CPU (see bench/README.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one `go test -bench` result line that reports
// allocations, e.g.
// "BenchmarkChaosRecovery-8  3  17925008 ns/op  178525 tuples/s  1024 B/op  17 allocs/op".
// The -8 GOMAXPROCS suffix is stripped so results compare across core
// counts.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s.*\s([0-9]+) allocs/op`)

// result is one benchmark's recorded allocation count.
type result struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	parse := flag.String("parse", "", "bench output file to parse into JSON")
	out := flag.String("out", "", "output path for -parse (default stdout)")
	oldPath := flag.String("old", "", "baseline JSON (comparison mode)")
	newPath := flag.String("new", "", "candidate JSON (comparison mode)")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.25, "fail when allocs/op grows by more than this fraction (plus -alloc-slack)")
	allocSlack := flag.Float64("alloc-slack", 2, "absolute allocs/op growth always tolerated (noise floor for tiny baselines)")
	flag.Parse()

	switch {
	case *parse != "":
		if err := runParse(*parse, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	case *oldPath != "" && *newPath != "":
		ok, err := runCompare(*oldPath, *newPath, *maxAllocRegress, *allocSlack)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchdiff: use -parse FILE [-out FILE] or -old FILE -new FILE")
		os.Exit(2)
	}
}

// runParse converts bench text to the JSON map, keeping the minimum
// allocs/op per benchmark across -count repetitions (the least-noisy
// sample: GC-driven pool flushes only ever add allocations).
func runParse(path, out string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	best := map[string]*result{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		allocs, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if r, seen := best[m[1]]; !seen {
			best[m[1]] = &result{AllocsPerOp: allocs}
		} else if allocs < r.AllocsPerOp {
			r.AllocsPerOp = allocs
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(best) == 0 {
		return fmt.Errorf("no benchmark lines with allocs/op in %s", path)
	}
	data, err := json.MarshalIndent(best, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// load reads a results file: a JSON map of benchmark name →
// {allocs_per_op}.
func load(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]*result
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: want benchmark name → {allocs_per_op}: %w", path, err)
	}
	return m, nil
}

// runCompare prints a per-benchmark table and returns false when any
// shared benchmark's allocs/op grew past the threshold.
func runCompare(oldPath, newPath string, maxAllocRegress, allocSlack float64) (bool, error) {
	oldVals, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newVals, err := load(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(oldVals))
	for k := range oldVals {
		names = append(names, k)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		nv, shared := newVals[name]
		if !shared {
			fmt.Printf("%-55s only in baseline (skipped)\n", name)
			continue
		}
		oa, na := oldVals[name].AllocsPerOp, nv.AllocsPerOp
		verdict := "ok"
		if na > oa*(1+maxAllocRegress)+allocSlack {
			verdict = fmt.Sprintf("ALLOC REGRESSION (> %+.0f%%)", 100*maxAllocRegress)
			ok = false
		}
		fmt.Printf("%-55s allocs %.0f -> %.0f  %s\n", name, oa, na, verdict)
	}
	for name := range newVals {
		if _, shared := oldVals[name]; !shared {
			fmt.Printf("%-55s only in candidate (skipped)\n", name)
		}
	}
	if !ok {
		fmt.Printf("\nallocation gate FAILED: allocs/op grew more than allowed vs %s\n", oldPath)
	}
	return ok, nil
}
