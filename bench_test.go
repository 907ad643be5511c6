// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each BenchmarkFig* drives the corresponding experiment runner in
// quick mode (the full sweeps are produced by cmd/rldbench and recorded in
// EXPERIMENTS.md); the Benchmark*Core entries are micro-benchmarks of the
// hot algorithms themselves.
//
// Run with:
//
//	go test -bench=. -benchmem
package rld

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// benchExperiment drives one registered experiment in quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, ok := RunExperiment(id, true)
		if !ok || len(tables) == 0 {
			b.Fatalf("experiment %s failed", id)
		}
	}
}

// Table 2 — system parameters and data-distribution statistics.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Figure 10 — optimizer calls vs uncertainty level (ES/RS/ERP).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Figure 11 — space coverage vs optimizer-call budget.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// Figure 12 — optimizer calls vs space dimensionality.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// Figure 13 — physical-plan compile time vs machines.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// Figure 14 — physical-plan space coverage vs machines.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// Figure 15a — average tuple processing time vs rate fluctuation ratio.
func BenchmarkFig15a(b *testing.B) { benchExperiment(b, "fig15a") }

// Figure 15b — cumulative tuples produced under stepped rates.
func BenchmarkFig15b(b *testing.B) { benchExperiment(b, "fig15b") }

// Figure 16a — average tuple processing time vs number of nodes.
func BenchmarkFig16a(b *testing.B) { benchExperiment(b, "fig16a") }

// Figure 16b — average tuple processing time vs fluctuation period.
func BenchmarkFig16b(b *testing.B) { benchExperiment(b, "fig16b") }

// §6.5 — runtime overhead comparison.
func BenchmarkOverhead(b *testing.B) { benchExperiment(b, "overhead") }

// Ablations (DESIGN.md §6).
func BenchmarkAblationERPvsWRP(b *testing.B) { benchExperiment(b, "ablation-erp") }
func BenchmarkAblationBound(b *testing.B)    { benchExperiment(b, "ablation-bound") }
func BenchmarkAblationBatchSize(b *testing.B) {
	benchExperiment(b, "ablation-batch")
}

// --- Micro-benchmarks of the core algorithms ---

func benchDeployment(b *testing.B, eps float64) *Deployment {
	b.Helper()
	q := NewNWayJoin("Q1", 5, 2)
	dims := []Dim{
		SelDim(0, q.Ops[0].Sel, 3),
		SelDim(3, q.Ops[3].Sel, 3),
	}
	cfg := DefaultConfig()
	cfg.Robust.Epsilon = eps
	dep, err := Optimize(q, dims, NewCluster(3, 80), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return dep
}

// BenchmarkOptimizeCore measures the full two-step RLD optimization
// (ERP + OptPrune) for Q1 on a 16×16 space.
func BenchmarkOptimizeCore(b *testing.B) {
	q := NewNWayJoin("Q1", 5, 2)
	dims := []Dim{
		SelDim(0, q.Ops[0].Sel, 3),
		SelDim(3, q.Ops[3].Sel, 3),
	}
	cl := NewCluster(3, 80)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(q, dims, cl, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyCore measures one online classification — the per-batch
// runtime cost RLD pays instead of migration — on the 2-D benchmark
// deployment and on a 4-D one where the cost fallback decides the cell.
// Both read one compiled table entry; the 4-D one snaps two more
// dimensions.
func BenchmarkClassifyCore(b *testing.B) {
	b.Run("dims=2", benchClassify2D)
	b.Run("dims=4", benchClassify4D)
}

func benchClassify2D(b *testing.B) {
	benchClassify(b, benchDeployment(b, 0.05), []float64{0.3, 0.35, 0.4, 0.45, 0.5})
}

// classify4D compiles rldopt's fallback-heavy shape once (an 8-way join with
// selectivity dims 0, 2, 4 and 6 on four nodes of capacity 80): 14 of its 56
// plans are supported, and no supported region contains the estimates. The
// 65 536-point space takes about half a second to compile.
var classify4D = sync.OnceValues(func() (*Deployment, error) {
	q := NewNWayJoin("Q8way", 8, 2)
	var dims []Dim
	for _, op := range []int{0, 2, 4, 6} {
		dims = append(dims, SelDim(op, q.Ops[op].Sel, 3))
	}
	return Optimize(q, dims, NewCluster(4, 80), DefaultConfig())
})

func benchClassify4D(b *testing.B) {
	dep, err := classify4D()
	if err != nil {
		b.Fatal(err)
	}
	var sels []float64
	for _, op := range dep.Query.Ops {
		sels = append(sels, op.Sel)
	}
	benchClassify(b, dep, sels)
}

func benchClassify(b *testing.B, dep *Deployment, sels []float64) {
	snap := Snapshot{Sels: sels, Rates: map[string]float64{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, _ := dep.Classify(snap); p == nil {
			b.Fatal("classification failed")
		}
	}
}

// BenchmarkBestPlanCore measures one black-box optimizer call (rank-based
// exact ordering) — the unit of Figures 10-12.
func BenchmarkBestPlanCore(b *testing.B) {
	dep := benchDeployment(b, 0.2)
	pnt := dep.Space.At(dep.Space.Center())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, _ := BestPlanAt(dep, pnt); p == nil {
			b.Fatal("no plan")
		}
	}
}

// BenchmarkSimMinuteCore measures one simulated minute of the DSPS under
// the RLD policy (3 streams, batch 20).
func BenchmarkSimMinuteCore(b *testing.B) {
	dep := benchDeployment(b, 0.2)
	sc := &Scenario{
		Query:     dep.Query,
		Rates:     map[string]Profile{},
		Sels:      make([]Profile, len(dep.Query.Ops)),
		Cluster:   dep.Cluster,
		BatchSize: 20,
	}
	for _, s := range dep.Query.Streams {
		sc.Rates[s] = ConstProfile(dep.Query.Rates[s])
	}
	for i := range sc.Sels {
		sc.Sels[i] = ConstProfile(dep.Query.Ops[i].Sel)
	}
	pol := dep.NewPolicy(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate(dep, sc, pol, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineIngestCore measures live-engine batch ingestion and full
// pipeline execution (2-stream join, 50-tuple batches).
func BenchmarkEngineIngestCore(b *testing.B) {
	q := NewNWayJoin("E", 2, 5)
	dep, err := Optimize(q, []Dim{SelDim(0, q.Ops[0].Sel, 3)}, NewCluster(2, 500), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	pipe, err := Open(ctx, dep, &StaticPolicy{Plan: Plan{0, 1}, Assign: []int{0, 1}})
	if err != nil {
		b.Fatal(err)
	}
	// Batches come from the pool and are refilled through the columnar
	// AppendRow path — the zero-allocation producer idiom.
	mkBatch := func(i int) *Batch {
		batch := AcquireBatch(q.Streams[i%2], 1)
		for j := 0; j < 50; j++ {
			row := batch.AppendRow(uint64(i*50+j), Time(float64(i)*0.1), int64(j%97), Time(float64(i)*0.1))
			row[0] = float64(j)
		}
		return batch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := mkBatch(i)
		if err := pipe.Ingest(ctx, batch); err != nil {
			b.Fatal(err)
		}
		batch.Release()
	}
	b.StopTimer()
	if _, err := pipe.Close(ctx); err != nil {
		b.Fatal(err)
	}
}

// benchPipelineIngest drives b.N 100-tuple batches through one live
// Pipeline from the given number of concurrent producers, under the
// deployment's own RLD policy (per-batch classification included). The
// workload is admission-heavy — every batch inserts its tuples into the
// sharded join window and the downstream pipeline sinks early — so the
// measured quantity is the ingest hot path itself.
func benchPipelineIngest(b *testing.B, producers int) {
	dep := benchDeployment(b, 0.2)
	ctx := context.Background()
	pipe, err := Open(ctx, dep, nil)
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 100
	batches := make([]*Batch, producers)
	for p := range batches {
		batch := &Batch{Stream: "S2"}
		for j := 0; j < batchSize; j++ {
			batch.Append(&Tuple{
				Stream: batch.Stream,
				Seq:    uint64(p*batchSize + j),
				Ts:     1, // constant virtual time: no tick edges, pure fast-path admission
				Key:    int64(p*batchSize+j) % 1021,
				Vals:   []float64{float64(j)},
			})
		}
		batches[p] = batch
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		cnt := b.N / producers
		if p < b.N%producers {
			cnt++
		}
		wg.Add(1)
		go func(p, cnt int) {
			defer wg.Done()
			for i := 0; i < cnt; i++ {
				if err := pipe.Ingest(ctx, batches[p]); err != nil {
					b.Error(err)
					return
				}
			}
		}(p, cnt)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "tuples/s")
	if _, err := pipe.Close(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelineIngestParallel measures multi-producer admission
// scaling on one Pipeline — the acceptance benchmark for the concurrent
// admission path (the old design serialized every producer through one
// session mutex, capping producers=4 at ~1× producers=1; on a multi-core
// runner it should now exceed 2×). Run with:
//
//	go test -bench PipelineIngestParallel -benchtime 2s
func BenchmarkPipelineIngestParallel(b *testing.B) {
	for _, producers := range []int{1, 4} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			benchPipelineIngest(b, producers)
		})
	}
}

// BenchmarkPipelineResults is the result-delivery benchmark: 100-tuple
// batches of a 3-way join with about three matches per probe (a few hundred
// result tuples per batch), through a Pipeline opened WithBufferedResults
// and drained by a consumer. Every other benchmark here runs without a
// subscriber, so none of them sees what handing results to one costs;
// TestBenchmarkAllocs bounds its allocs/op.
func BenchmarkPipelineResults(b *testing.B) {
	const (
		batchSize = 100
		rate      = 1000 // tuples per virtual second per stream
		span      = 12   // window, virtual seconds
		keys      = 4096 // rate*span/keys ≈ 3 matches per probe
	)
	q := NewNWayJoin("R", 3, rate)
	q.WindowSeconds = span
	dims := []Dim{SelDim(0, q.Ops[0].Sel, 3), SelDim(1, q.Ops[1].Sel, 3)}
	dep, err := Optimize(q, dims, NewCluster(2, 1e9), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Depth 1: each batch's emission is sunk before the next is admitted.
	// Sunk is not consumed, though: producer and worker hand the processor
	// to each other, and when no other one is free the consumer waits out
	// their time slice — about 125 batches. The buffer covers several.
	pipe, err := Open(ctx, dep, nil, WithWorkers(1), WithBufferedResults(1024), WithMaxPending(1), WithClassifyBatch(batchSize))
	if err != nil {
		b.Fatal(err)
	}
	var results int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for rb := range pipe.Results() {
			results += int64(len(rb.Tuples))
		}
	}()
	rng := uint64(1)
	offer := func(i int) {
		round, slot := i/len(q.Streams), i%len(q.Streams)
		batch := AcquireBatch(q.Streams[slot], 1)
		for j := 0; j < batchSize; j++ {
			n := round*batchSize + j
			rng = rng*6364136223846793005 + 1442695040888963407
			ts := Time(float64(n) / rate)
			row := batch.AppendRow(uint64(n), ts, int64(rng>>33)%keys, ts)
			row[0] = float64(rng>>40) / (1 << 24) * 100
		}
		if err := pipe.Ingest(ctx, batch); err != nil {
			b.Fatal(err)
		}
		batch.Release()
	}
	// Fill every window to its full span before timing.
	warm := len(q.Streams) * span * rate / batchSize
	for i := 0; i < warm; i++ {
		offer(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer(warm + i)
	}
	b.StopTimer()
	rep, err := pipe.Close(ctx)
	if err != nil {
		b.Fatal(err)
	}
	<-drained
	if dropped := pipe.Stats().ResultsDropped; dropped != 0 || float64(results) != rep.Produced {
		b.Fatalf("consumer saw %d of %.0f results (%d emissions dropped)", results, rep.Produced, dropped)
	}
	b.ReportMetric(rep.Produced/float64(warm+b.N), "results/batch")
}

// BenchmarkERPByUncertainty reports ERP optimization cost as the declared
// uncertainty grows (the compile-time scaling of Figure 10).
func BenchmarkERPByUncertainty(b *testing.B) {
	for _, u := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("U=%d", u), func(b *testing.B) {
			q := NewNWayJoin("Q1", 5, 2)
			dims := []Dim{
				SelDim(0, q.Ops[0].Sel, u),
				SelDim(3, q.Ops[3].Sel, u),
			}
			cl := NewCluster(3, 80)
			cfg := DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(q, dims, cl, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
