// Command rldrun simulates a fluctuating streaming workload under the three
// load-distribution policies of the paper's §6.5 study — ROD, DYN, and RLD
// — and prints their runtime metrics side by side. The workload is the
// study rldbench's §6.5 figures sweep (experiments.Study). With -faults,
// every policy additionally runs under the scripted fault schedule and the
// result-completeness versus its own fault-free run is reported. With
// -live, every policy additionally runs as a Pipeline session on the live
// sharded engine, replaying that many seconds of real tuples and counting
// the runtime events the session surfaces.
//
//	rldrun -minutes 30 -ratio 2 -nodes 4
//	rldrun -faults "crash:1@300-420;mode=checkpoint"
//	rldrun -faults random            # seeded random crash schedule
//	rldrun -live 120                 # …plus live-engine Pipeline sessions
//	rldrun -distributed 120          # …plus leader/worker multi-process runs
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"rld"
	"rld/internal/experiments"
)

func main() {
	// Re-exec entry point: when this process was spawned as a
	// distributed-mode worker, serve the worker loop and never return.
	rld.MaybeWorker()
	ops := flag.Int("ops", 5, "number of query operators")
	nodes := flag.Int("nodes", 4, "cluster size")
	minutes := flag.Float64("minutes", 30, "simulated run length")
	ratio := flag.Float64("ratio", 2, "input-rate fluctuation ratio (1 = estimates)")
	batch := flag.Int("batch", 50, "ruster (batch) size in tuples")
	period := flag.Float64("period", 120, "selectivity fluctuation period (seconds)")
	seed := flag.Int64("seed", 42, "simulation seed")
	faults := flag.String("faults", "", `fault schedule ("crash:1@300-420;mode=checkpoint", or "random")`)
	live := flag.Float64("live", 0, "also run each policy as a live-engine Pipeline session over this many seconds of real tuples (0 = off)")
	dist := flag.Float64("distributed", 0, "also run each policy on the multi-process network substrate (leader + one worker process per node) over this many seconds of real tuples (0 = off)")
	workerBin := flag.String("worker-bin", "", "worker binary for -distributed (default: re-exec this binary)")
	minComplete := flag.Float64("mincomplete", 0, "with -distributed and -faults: exit nonzero unless the faulted RLD run's completeness vs its fault-free run is at least this (0 = report only)")
	exactlyOnce := flag.Bool("exactly-once", false, "with -distributed: run the sessions with exactly-once durability (a write-ahead log in a temp dir)")
	flag.Parse()
	if *minComplete < 0 || *minComplete > 1 {
		fmt.Fprintf(flag.CommandLine.Output(), "rldrun: -mincomplete=%v out of range: completeness is a ratio in [0,1]\n", *minComplete)
		flag.Usage()
		os.Exit(2)
	}

	// The §6.5 study the rldbench figures sweep, set from the flags; rldrun
	// sizes capacity with a little more headroom than the figures.
	o := experiments.DefaultStudy()
	o.Ops, o.Nodes, o.Batch, o.Seed = *ops, *nodes, *batch, *seed
	o.Horizon, o.SelPeriod, o.Headroom = *minutes*60, *period, 2.5
	o.RateFor = func(_ string, base float64) rld.Profile { return rld.ConstProfile(base * *ratio) }
	study, err := experiments.NewStudy(o)
	if err != nil {
		log.Fatal(err)
	}
	dep, q := study.Deployment, study.Scenario.Query

	var plan *rld.FaultPlan
	if *faults == "random" {
		plan = rld.RandomFaults(rld.DefaultFaultConfig(), *nodes, o.Horizon, *seed)
	} else if *faults != "" {
		if plan, err = rld.ParseFaultPlan(*faults); err != nil {
			log.Fatal(err)
		}
		if err := plan.Validate(*nodes); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("%d simulated minutes, ratio %.0f%%, %d nodes × %.0f capacity\n\n",
		int(*minutes), *ratio*100, *nodes, dep.Cluster.Nodes[0].Capacity)
	fmt.Printf("%-6s %13s %13s %11s %11s %10s %9s\n",
		"policy", "latency ms", "produced", "dropped", "migrations", "downtime", "overhead")
	baselines, err := study.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range baselines {
		fmt.Printf("%-6s %13.1f %13.0f %11.0f %11d %9.1fs %8.1f%%\n",
			res.Policy, res.MeanLatencyMS, res.Produced, res.Dropped,
			res.Migrations, res.MigrationDowntime, 100*res.OverheadRatio())
	}

	// Feed and policy factories shared by the live-engine and distributed
	// sections. DYN's absolute activation floor is in simulator cost-units;
	// the engine reports queued message counts, so it is retuned to that
	// scale.
	makeFeed := func(seconds float64) rld.Feed {
		srcs := make([]*rld.Source, len(q.Streams))
		for i, s := range q.Streams {
			srcs[i] = rld.NewSource(s,
				rld.ConstProfile(q.Rates[s]**ratio),
				rld.KeyDist{Target: rld.ConstProfile(0.002), Cold: 4096},
				rld.UniformDist{A: 0, B: 100}, *seed+int64(i)*13)
		}
		return rld.NewSourceFeed(srcs, *batch, seconds)
	}
	dynCfg := rld.DefaultDYNConfig()
	dynCfg.ActivationFloor = 2
	dynCfg.CooldownSeconds = 10
	mkLive := func() []rld.Policy {
		dynP, err := rld.NewDYN(dep, dynCfg)
		if err != nil {
			log.Fatal(err)
		}
		rodP, err := rld.NewROD(dep)
		if err != nil {
			log.Fatal(err)
		}
		return []rld.Policy{rodP, dynP, dep.NewPolicy(*batch)}
	}
	ctx := context.Background()
	// replay runs pol as a Pipeline session over seconds of the feed and
	// returns its report and the number of events the session surfaced.
	replay := func(pol rld.Policy, seconds float64, opts ...rld.Option) (*rld.Report, int) {
		pipe, err := rld.Open(ctx, dep, pol, opts...)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := rld.Replay(ctx, pipe, makeFeed(seconds))
		if err != nil {
			log.Fatal(err)
		}
		events := 0
		for range pipe.Events() {
			events++
		}
		return rep, events
	}

	if *live > 0 {
		// The same policies as long-lived Pipeline sessions on the live
		// engine: real tuples through worker pools, with the session's
		// Events stream counting plan switches and migrations as they
		// happen.
		fmt.Printf("\nlive engine: %.0fs of real tuples per policy (Pipeline sessions)\n\n", *live)
		fmt.Printf("%-6s %13s %13s %11s %11s %10s\n",
			"policy", "latency ms", "produced", "batches", "migrations", "events")
		for _, pol := range mkLive() {
			rep, events := replay(pol, *live, rld.WithBufferedEvents(1<<16))
			fmt.Printf("%-6s %13.2f %13.0f %11d %11d %10d\n",
				rep.Policy, rep.MeanLatencyMS, rep.Produced, rep.Batches, rep.Migrations, events)
		}
	}

	if *dist > 0 {
		// The same policies on the multi-process network substrate: a
		// leader embedded in the Pipeline plus one worker process per
		// node, speaking the netrt wire protocol over local TCP.
		distOpts := []rld.Option{rld.WithDistributed(*nodes)}
		if *workerBin != "" {
			distOpts = append(distOpts, rld.WithWorkerCommand(*workerBin))
		}
		if *exactlyOnce {
			walDir, err := os.MkdirTemp("", "rldrun-wal-")
			if err != nil {
				log.Fatal(err)
			}
			defer os.RemoveAll(walDir)
			distOpts = append(distOpts, rld.WithExactlyOnce(walDir))
		}
		fmt.Printf("\ndistributed: %.0fs of real tuples per policy (leader + %d worker processes)\n\n", *dist, *nodes)
		fmt.Printf("%-6s %13s %13s %11s %11s\n",
			"policy", "latency ms", "produced", "batches", "migrations")
		var distBase *rld.Report
		for _, pol := range mkLive() {
			rep, _ := replay(pol, *dist, distOpts...)
			distBase = rep // RLD runs last
			fmt.Printf("%-6s %13.2f %13.0f %11d %11d\n",
				rep.Policy, rep.MeanLatencyMS, rep.Produced, rep.Batches, rep.Migrations)
		}
		if plan != nil {
			// The faulted RLD run: scripted crashes SIGKILL real worker
			// processes; completeness is measured against the fault-free
			// distributed run above and optionally gated (-mincomplete),
			// the CI chaos smoke's assertion.
			rep, _ := replay(dep.NewPolicy(*batch), *dist,
				append(distOpts, rld.WithFaults(plan), rld.WithHorizon(*dist))...)
			complete := 0.0
			if distBase.Produced > 0 {
				complete = rep.Produced / distBase.Produced
			}
			fmt.Printf("\ndistributed + faults %s\n", plan)
			fmt.Printf("%-6s produced %.0f lost %.0f crashes %d restores %d complete %.1f%%\n",
				rep.Policy, rep.Produced, rep.TuplesLost, rep.Crashes, rep.Restores, 100*complete)
			if *minComplete > 0 && complete < *minComplete {
				log.Fatalf("distributed completeness %.3f below required %.3f", complete, *minComplete)
			}
		}
	}

	if plan == nil {
		return
	}
	fmt.Printf("\nfault schedule: %s\n\n", plan)
	fmt.Printf("%-6s %13s %13s %11s %11s %10s %9s\n",
		"policy", "latency ms", "produced", "lost", "migrations", "down", "complete")
	faulted, err := study.Run(plan)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range faulted {
		complete := 0.0
		if baselines[i].Produced > 0 {
			complete = res.Produced / baselines[i].Produced
		}
		fmt.Printf("%-6s %13.1f %13.0f %11.0f %11d %9.1fs %8.1f%%\n",
			res.Policy, res.MeanLatencyMS, res.Produced, res.TuplesLost,
			res.Migrations, res.DownSeconds, 100*complete)
	}
}
