//go:build !race

package rld

import (
	"testing"

	"rld/internal/alloctest"
)

// TestBenchmarkAllocs holds the Pipeline benchmarks to their allocation
// bounds — the allocs/op last recorded for each at -benchtime 1s, reading
// + 2 — by running the benchmark's own body: admission allocates nothing
// per batch beyond the message, and delivery to a Results subscriber stays
// O(1) allocations per emission. (The race detector changes allocation
// behaviour; the file is excluded under -race.)
func TestBenchmarkAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound int64
		body  func(*testing.B)
	}{
		{"PipelineIngestParallel/producers=1", 4, func(b *testing.B) { benchPipelineIngest(b, 1) }},
		{"PipelineIngestParallel/producers=4", 4, func(b *testing.B) { benchPipelineIngest(b, 4) }},
		{"PipelineResults", 12, BenchmarkPipelineResults},
		{"ClassifyCore/dims=2", 0, benchClassify2D},
		{"ClassifyCore/dims=4", 0, benchClassify4D},
	} {
		alloctest.Bound(t, c.name, "1s", c.bound, c.body)
	}
}
