package rld_test

import (
	"context"
	"fmt"
	"log"

	"rld"
)

// exampleDeployment compiles a small deployment: a 3-way join with one
// uncertain selectivity on a 2-node cluster.
func exampleDeployment() *rld.Deployment {
	q := rld.NewNWayJoin("Q", 3, 5)
	dims := []rld.Dim{rld.SelDim(0, q.Ops[0].Sel, 2)}
	cl := rld.NewCluster(2, 1e6)
	cfg := rld.DefaultConfig()
	cfg.Steps = 4
	dep, err := rld.Optimize(q, dims, cl, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return dep
}

// exampleBatch builds one batch of n tuples on the stream at second t.
func exampleBatch(streamName string, n int, t float64) *rld.Batch {
	b := &rld.Batch{Stream: streamName}
	for j := 0; j < n; j++ {
		ts := rld.Time(t + float64(j)*0.01)
		b.Append(&rld.Tuple{
			Stream: streamName, Seq: uint64(j), Ts: ts,
			Key: int64(j % 32), Vals: []float64{float64(j % 100)}, Arrival: ts,
		})
	}
	return b
}

// ExampleOpen runs a streaming session on the simulator substrate — the
// identical Pipeline surface the live engine serves, with virtual time
// driven by batch timestamps, so the run is fully deterministic.
func ExampleOpen() {
	dep := exampleDeployment()
	ctx := context.Background()

	pipe, err := rld.Open(ctx, dep, nil, rld.WithSimulation(&rld.Scenario{}), rld.WithHorizon(120))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s := dep.Query.Streams[i%len(dep.Query.Streams)]
		if err := pipe.Ingest(ctx, exampleBatch(s, 10, float64(i))); err != nil {
			log.Fatal(err)
		}
	}
	rep, err := pipe.Close(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("substrate: %s\n", pipe.Substrate())
	fmt.Printf("ingested: %.0f tuples in %d batches\n", rep.Ingested, rep.Batches)
	fmt.Printf("produced results: %t\n", rep.Produced > 0)
	// Output:
	// substrate: sim
	// ingested: 1000 tuples in 100 batches
	// produced results: true
}

// ExampleOpen_events subscribes to a session's runtime event stream while
// a scripted fault schedule crashes and recovers a node.
func ExampleOpen_events() {
	dep := exampleDeployment()
	ctx := context.Background()

	faults, err := rld.ParseFaultPlan("crash:1@10-20;mode=checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := rld.Open(ctx, dep, nil,
		rld.WithSimulation(&rld.Scenario{}),
		rld.WithHorizon(60),
		rld.WithFaults(faults),
		rld.WithBufferedEvents(256))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		s := dep.Query.Streams[i%len(dep.Query.Streams)]
		if err := pipe.Ingest(ctx, exampleBatch(s, 5, float64(i))); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := pipe.Close(ctx); err != nil {
		log.Fatal(err)
	}
	for ev := range pipe.Events() {
		switch ev.Kind {
		case rld.EventCrash, rld.EventRecovery:
			fmt.Printf("%s node %d at t=%.0f\n", ev.Kind, ev.Node, ev.T)
		}
	}
	// Output:
	// crash node 1 at t=10
	// recovery node 1 at t=20
}

// ExampleOpen_liveEngine runs the session on the default substrate — the
// live sharded multi-worker engine — with a result subscription and an
// online policy hot-swap.
func ExampleOpen_liveEngine() {
	dep := exampleDeployment()
	ctx := context.Background()

	pipe, err := rld.Open(ctx, dep, nil,
		rld.WithWorkers(2),
		rld.WithBufferedResults(4096))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s := dep.Query.Streams[i%len(dep.Query.Streams)]
		if err := pipe.Ingest(ctx, exampleBatch(s, 20, float64(i))); err != nil {
			log.Fatal(err)
		}
	}

	// Hot-swap the strategy mid-run: later batches classify under ROD.
	rod, err := rld.NewROD(dep)
	if err != nil {
		log.Fatal(err)
	}
	if err := pipe.SwapPolicy(rod); err != nil {
		log.Fatal(err)
	}
	for i := 40; i < 80; i++ {
		s := dep.Query.Streams[i%len(dep.Query.Streams)]
		if err := pipe.Ingest(ctx, exampleBatch(s, 20, float64(i))); err != nil {
			log.Fatal(err)
		}
	}

	rep, err := pipe.Close(ctx)
	if err != nil {
		log.Fatal(err)
	}
	var streamed float64
	for rb := range pipe.Results() {
		streamed += rb.Count
	}
	fmt.Printf("substrate: %s\n", pipe.Substrate())
	fmt.Printf("closing policy: %s\n", rep.Policy)
	fmt.Printf("result stream matches report: %t\n", streamed == rep.Produced && rep.Produced > 0)
	// Output:
	// substrate: engine
	// closing policy: ROD
	// result stream matches report: true
}
