// Command benchdiff is the CI benchmark-regression gate. It has two
// modes:
//
//	benchdiff -parse bench.txt -out BENCH_PR.json
//
// parses `go test -bench` text output into a JSON map of benchmark name →
// {ns_per_op, allocs_per_op}, keeping the best (minimum) sample across
// -count repetitions, and
//
//	benchdiff -old BENCH_BASELINE.json -new BENCH_PR.json \
//	    -max-regress 0.25 -max-alloc-regress 0.25
//
// compares two such files and exits non-zero if any benchmark present in
// both regressed by more than the threshold. With -normalize NAME, every
// ns/op value is first divided by that benchmark's value in its own file,
// so the comparison is relative to a reference workload and cancels
// machine-speed differences between the machine that produced the
// committed baseline and the CI runner. Allocations per op are
// machine-independent, so they are compared raw (never normalized), with
// a small absolute slack so benchmarks with tiny baselines don't fail on
// ±1-alloc noise. Benchmarks present in only one file are reported but
// never fail the gate (sub-benchmark names such as workers=GOMAXPROCS
// legitimately vary across machines), and entries without alloc data
// (benchmarks missing b.ReportAllocs) skip the alloc gate.
//
// A third mode folds newly added benchmarks into an existing baseline
// without hand-editing JSON:
//
//	benchdiff -merge BENCH_PR.json -into BENCH_BASELINE.json \
//	    -normalize BenchmarkCalibration -out BENCH_BASELINE.json
//
// copies every benchmark present only in the merge file into the
// baseline. With -normalize, each copied ns/op is rescaled by the ratio
// of the two files' reference values, converting the local measurement
// into the baseline machine's units so the regression gate stays
// meaningful; allocs/op copy unchanged. Benchmarks already in the
// baseline are never overwritten — refreshing an existing entry is a
// deliberate act that should stay a hand edit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkChaosRecovery-8  3  17925008 ns/op  178525 tuples/s  1024 B/op  17 allocs/op".
// The -8 GOMAXPROCS suffix is stripped so results compare across core
// counts.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// allocField matches the allocs/op field emitted under b.ReportAllocs.
var allocField = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// result is one benchmark's recorded metrics. AllocsPerOp is nil when the
// benchmark did not report allocations (or the file predates the field).
type result struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	parse := flag.String("parse", "", "bench output file to parse into JSON")
	out := flag.String("out", "", "output path for -parse (default stdout)")
	oldPath := flag.String("old", "", "baseline JSON (comparison mode)")
	newPath := flag.String("new", "", "candidate JSON (comparison mode)")
	maxRegress := flag.Float64("max-regress", 0.25, "fail when ns/op grows by more than this fraction")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.25, "fail when allocs/op grows by more than this fraction (plus -alloc-slack)")
	allocSlack := flag.Float64("alloc-slack", 2, "absolute allocs/op growth always tolerated (noise floor for tiny baselines)")
	normalize := flag.String("normalize", "", "divide each file's ns/op by this benchmark's value before comparing")
	merge := flag.String("merge", "", "results JSON whose baseline-absent benchmarks are added to -into")
	into := flag.String("into", "", "baseline JSON to merge new benchmarks into (merge mode)")
	flag.Parse()

	switch {
	case *parse != "":
		if err := runParse(*parse, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	case *merge != "" && *into != "":
		if err := runMerge(*merge, *into, *normalize, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	case *oldPath != "" && *newPath != "":
		ok, err := runCompare(*oldPath, *newPath, *maxRegress, *maxAllocRegress, *allocSlack, *normalize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchdiff: use -parse FILE [-out FILE], -old FILE -new FILE, or -merge FILE -into FILE [-out FILE]")
		os.Exit(2)
	}
}

// runMerge adds benchmarks present only in mergePath to the baseline at
// intoPath. With normalize set, copied ns/op values are multiplied by
// baseline_ref/merge_ref so they land in the baseline machine's units;
// without it they copy raw (only sound when both files came from the
// same machine). Existing baseline entries are never modified.
func runMerge(mergePath, intoPath, normalize, out string) error {
	src, err := load(mergePath)
	if err != nil {
		return err
	}
	base, err := load(intoPath)
	if err != nil {
		return err
	}
	scale := 1.0
	if normalize != "" {
		br, sr := base[normalize], src[normalize]
		if br == nil || sr == nil || br.NsPerOp <= 0 || sr.NsPerOp <= 0 {
			// Same contract as the comparison gate: rescaling is the whole
			// point of -normalize, so a missing reference is an error.
			return fmt.Errorf("-normalize %q missing from %s or %s", normalize, intoPath, mergePath)
		}
		scale = br.NsPerOp / sr.NsPerOp
	}
	names := make([]string, 0, len(src))
	for k := range src {
		names = append(names, k)
	}
	sort.Strings(names)
	added := 0
	for _, name := range names {
		if _, exists := base[name]; exists {
			continue
		}
		v := src[name]
		// Round to whole nanoseconds: sub-ns precision is noise, and the
		// merged file is committed, so keep it diff-friendly.
		base[name] = &result{NsPerOp: math.Round(v.NsPerOp * scale), AllocsPerOp: v.AllocsPerOp}
		fmt.Fprintf(os.Stderr, "benchdiff: adding %s (ns/op %.0f, scale %.3f)\n", name, v.NsPerOp*scale, scale)
		added++
	}
	if added == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: nothing to merge; baseline unchanged")
	}
	data, err := json.MarshalIndent(base, "", "  ")
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

// runParse converts bench text to the JSON map, keeping the minimum ns/op
// per benchmark across -count repetitions (the least-noisy sample) and the
// minimum allocs/op alongside it.
func runParse(path, out string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	best := map[string]*result{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		var allocs *float64
		if am := allocField.FindStringSubmatch(line); am != nil {
			if a, err := strconv.ParseFloat(am[1], 64); err == nil {
				allocs = &a
			}
		}
		r, seen := best[m[1]]
		if !seen {
			best[m[1]] = &result{NsPerOp: ns, AllocsPerOp: allocs}
			continue
		}
		if ns < r.NsPerOp {
			r.NsPerOp = ns
		}
		if allocs != nil && (r.AllocsPerOp == nil || *allocs < *r.AllocsPerOp) {
			r.AllocsPerOp = allocs
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(best) == 0 {
		return fmt.Errorf("no benchmark lines in %s", path)
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

// load reads a results file: a JSON map of benchmark name → {ns_per_op,
// allocs_per_op}. Anything else — such as the flat name → ns/op map
// baselines used before they carried alloc data — fails to parse.
func load(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]*result
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: want benchmark name → {ns_per_op, allocs_per_op}: %w", path, err)
	}
	return m, nil
}

// runCompare prints a per-benchmark table and returns false when any
// shared benchmark regressed past either threshold.
func runCompare(oldPath, newPath string, maxRegress, maxAllocRegress, allocSlack float64, normalize string) (bool, error) {
	oldVals, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newVals, err := load(newPath)
	if err != nil {
		return false, err
	}
	if normalize != "" {
		or, nr := oldVals[normalize], newVals[normalize]
		if or == nil || nr == nil || or.NsPerOp <= 0 || nr.NsPerOp <= 0 {
			// Raw ns/op across different machines is meaningless — the
			// gate's correctness depends on the reference — so a missing
			// reference is an error, not a degraded comparison.
			return false, fmt.Errorf("-normalize %q missing from %s or %s", normalize, oldPath, newPath)
		}
		ob, nb := or.NsPerOp, nr.NsPerOp
		for _, v := range oldVals {
			v.NsPerOp /= ob
		}
		for _, v := range newVals {
			v.NsPerOp /= nb
		}
	}
	names := make([]string, 0, len(oldVals))
	for k := range oldVals {
		names = append(names, k)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		ov := oldVals[name]
		nv, shared := newVals[name]
		if !shared {
			fmt.Printf("%-55s only in baseline (skipped)\n", name)
			continue
		}
		ratio := nv.NsPerOp / ov.NsPerOp
		verdict := "ok"
		if name == normalize {
			verdict = "reference"
		} else if ratio > 1+maxRegress {
			verdict = fmt.Sprintf("REGRESSION (> %+.0f%%)", 100*maxRegress)
			ok = false
		}
		allocNote := "allocs n/a"
		if name != normalize && ov.AllocsPerOp != nil && nv.AllocsPerOp != nil {
			oa, na := *ov.AllocsPerOp, *nv.AllocsPerOp
			allocNote = fmt.Sprintf("allocs %.0f -> %.0f", oa, na)
			if na > oa*(1+maxAllocRegress)+allocSlack {
				verdict = fmt.Sprintf("ALLOC REGRESSION (> %+.0f%%)", 100*maxAllocRegress)
				ok = false
			}
		}
		fmt.Printf("%-55s %+7.1f%%  %-22s %s\n", name, 100*(ratio-1), allocNote, verdict)
	}
	for name := range newVals {
		if _, shared := oldVals[name]; !shared {
			fmt.Printf("%-55s only in candidate (skipped)\n", name)
		}
	}
	if !ok {
		fmt.Printf("\nbenchmark gate FAILED: regressed more than allowed vs %s\n", oldPath)
	}
	return ok, nil
}
