package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A mode reads: each
// end-to-end metric's bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs every chosen workload n times, each run a fresh process of
// this same binary with its own seed, and prints per metric × workload the
// minimum, median and maximum, the full range and the interquartile range
// as shares of the median. The interquartile share is what the driver
// compares with the metric's bound; A/A fails when one exceeds it (setup_s
// excepted, as in the driver). It returns the process's exit code.
func runAA(chosen []*spec, n int, seconds float64) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatalf("A/A needs the bounds: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, s := range chosen {
		values := map[string][]float64{}
		for i := 1; i <= n; i++ {
			line, err := childRun(exe, s.name, int64(i), seconds)
			if err != nil {
				fatalf("%s run %d: %v", s.name, i, err)
			}
			if !line.Correct {
				fmt.Printf("%s run %d: %d of %d operations failed\n", s.name, i, line.Failed, line.Attempted)
				code = 1
			}
			for name, m := range line.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("== %s: A/A over %d runs of %.0f s, seeds 1..%d\n", s.name, n, seconds, n)
		fmt.Printf("  %-18s %12s %12s %12s %8s %8s %6s\n", "metric", "min", "median", "max", "range", "iqr", "bound")
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			if len(xs) == 0 {
				fmt.Printf("  %-18s missing\n", m.Name)
				code = 1
				continue
			}
			spread := iqrShare(xs)
			verdict := ""
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "  PAST BOUND"
				code = 1
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %7.1f%% %7.1f%% %5.0f%%%s\n", m.Name, minOf(xs), median(xs), maxOf(xs),
				100*(maxOf(xs)-minOf(xs))/median(xs), 100*spread, 100*m.Bound, verdict)
		}
	}
	return code
}

// childRun executes one untraced run in a child process and parses the
// result line, the last line of its output.
func childRun(exe, workload string, seed int64, seconds float64) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return line, err
	}
	if err := cmd.Start(); err != nil {
		return line, err
	}
	last := ""
	sc := bufio.NewScanner(outPipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	// A run that reports failed operations exits 1 after printing its line;
	// the line, not the exit code, is what A/A judges.
	waitErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("no result line (%v, exit: %v)", err, waitErr)
	}
	return line, nil
}
