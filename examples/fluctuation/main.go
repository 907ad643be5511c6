// Fluctuation demonstrates the heart of the paper on one terminal screen:
// it sweeps the input-rate fluctuation ratio from 50% to 400% (Figure 15a)
// and prints the average tuple processing time of ROD, DYN, and RLD, plus
// the cumulative-output race under the stepped-rate schedule (Figure 15b).
// It closes with the Pipeline API on the simulator substrate: one session,
// hot-swapped from ROD to RLD mid-stream, with the swap surfacing on the
// session's Events stream.
package main

import (
	"context"
	"fmt"
	"log"

	"rld"
)

func main() {
	fmt.Println("Reproducing the §6.5 runtime comparisons (virtual time).")
	fmt.Println()

	tabs, ok := rld.RunExperiment("fig15a", false)
	if !ok {
		panic("fig15a not registered")
	}
	fmt.Println(rld.FormatTables(tabs))

	tabs, ok = rld.RunExperiment("fig15b", false)
	if !ok {
		panic("fig15b not registered")
	}
	fmt.Println(rld.FormatTables(tabs))

	tabs, ok = rld.RunExperiment("overhead", false)
	if !ok {
		panic("overhead not registered")
	}
	fmt.Println(rld.FormatTables(tabs))

	fmt.Println("RLD's only runtime cost is per-batch classification (≈2-4% of")
	fmt.Println("execution); it never migrates an operator, yet tracks the best")
	fmt.Println("logical plan as statistics fluctuate.")

	// Coda: the same machinery as a long-lived session. The simulator
	// serves the identical Pipeline API through a virtual-time adapter,
	// so this run is deterministic and instant.
	q := rld.NewNWayJoin("Q", 3, 5)
	dims := []rld.Dim{rld.SelDim(0, q.Ops[0].Sel, 3)}
	cfg := rld.DefaultConfig()
	cfg.Steps = 4
	dep, err := rld.Optimize(q, dims, rld.NewCluster(2, 1e6), cfg)
	if err != nil {
		log.Fatal(err)
	}
	rod, err := rld.NewROD(dep)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	pipe, err := rld.Open(ctx, dep, rod, rld.WithSimulation(&rld.Scenario{}), rld.WithHorizon(120))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if i == 60 {
			// Online strategy hot-swap: later batches classify under RLD.
			if err := pipe.SwapPolicy(dep.NewPolicy(10)); err != nil {
				log.Fatal(err)
			}
		}
		s := q.Streams[i%len(q.Streams)]
		b := &rld.Batch{Stream: s}
		for j := 0; j < 10; j++ {
			ts := rld.Time(float64(i) + float64(j)*0.05)
			b.Append(&rld.Tuple{Stream: s, Ts: ts, Key: int64(j), Vals: []float64{50}, Arrival: ts})
		}
		if err := pipe.Ingest(ctx, b); err != nil {
			log.Fatal(err)
		}
	}
	rep, err := pipe.Close(ctx)
	if err != nil {
		log.Fatal(err)
	}
	swaps := 0
	for ev := range pipe.Events() {
		if ev.Kind == rld.EventPolicySwap {
			swaps++
		}
	}
	fmt.Printf("\nPipeline session on the %s substrate: %.0f tuples in, %.0f results,\n",
		rep.Substrate, rep.Ingested, rep.Produced)
	fmt.Printf("closing policy %s after %d hot-swap (ROD → RLD) — no restart, no migration.\n",
		rep.Policy, swaps)
}
