// Package alloctest turns a Go benchmark's allocs/op into a test failure,
// so an allocation bound sits beside the benchmark body it bounds and a
// plain `go test` enforces it. Callers live in files built only without
// -race: the detector changes allocation behaviour.
package alloctest

import (
	"flag"
	"math"
	"testing"
)

// Bound runs body through testing.Benchmark under the given -benchtime
// ("3x", "1s") and fails t when it allocates more than bound per op. A run
// over the bound is repeated up to twice and the minimum kept: GC-driven
// pool flushes only ever add allocations, so the least-noisy sample is the
// smallest.
func Bound(t *testing.T, name, benchtime string, bound int64, body func(*testing.B)) {
	t.Helper()
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)
	got := int64(math.MaxInt64)
	for try := 0; try < 3 && got > bound; try++ {
		r := testing.Benchmark(body)
		if r.N == 0 {
			t.Fatalf("%s: the benchmark body failed; testing.Benchmark discards its log, so run it with go test -bench to see why", name)
		}
		got = min(got, r.AllocsPerOp())
	}
	if got > bound {
		t.Errorf("%s: %d allocs/op, bound %d", name, got, bound)
	} else {
		t.Logf("%s: %d allocs/op, bound %d", name, got, bound)
	}
}
