// Sensornet correlates simulated Intel-lab sensor streams (temperature,
// humidity, light, voltage) with a 4-way windowed join whose input rates
// fluctuate in bursts. It compares the RLD deployment against the ROD and
// DYN baselines on the discrete-event simulator — a miniature version of
// the paper's §6.5 study that runs in milliseconds.
package main

import (
	"context"
	"fmt"
	"log"

	"rld"
)

func main() {
	// A 4-way join standing in for "correlate readings across sensor
	// modalities within a 60 s window".
	q := rld.NewNWayJoin("Sensors", 4, 10)
	// Uncertainty: two operator selectivities (±40%) and every stream's
	// rate (±50% — epoch bursts).
	dims := []rld.Dim{
		rld.SelDim(0, q.Ops[0].Sel, 4),
		rld.SelDim(2, q.Ops[2].Sel, 4),
	}
	for _, s := range q.Streams {
		dims = append(dims, rld.RateDim(s, q.Rates[s], 5))
	}
	cfg := rld.DefaultConfig()
	cfg.Steps = 4 // coarse grid: 6-D space
	cl := rld.NewCluster(3, 800)
	dep, err := rld.Optimize(q, dims, cl, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RLD: %d robust plans, %d supported by one placement\n",
		dep.Logical.NumPlans(), len(dep.Physical.Supported))

	// The simulated truth: bursty rates (30 s period) and drifting
	// selectivities, all inside the declared space.
	sc := &rld.Scenario{
		Query:        dep.Query,
		Rates:        map[string]rld.Profile{},
		Sels:         make([]rld.Profile, len(q.Ops)),
		Cluster:      cl,
		BatchSize:    50,
		CountWindows: true,
		Seed:         11,
	}
	for i, s := range q.Streams {
		sc.Rates[s] = rld.SquareProfile{
			Lo: q.Rates[s] * 0.55, Hi: q.Rates[s] * 1.45,
			Period: 30, PhaseShift: float64(i) * 7,
		}
	}
	for i := range sc.Sels {
		sc.Sels[i] = rld.ConstProfile(q.Ops[i].Sel)
	}
	sc.Sels[0] = rld.SquareProfile{Lo: 0.19, Hi: 0.41, Period: 120}
	sc.Sels[2] = rld.SquareProfile{Lo: 0.27, Hi: 0.59, Period: 120, PhaseShift: 60}

	rod, err := rld.NewROD(dep)
	if err != nil {
		log.Fatal(err)
	}
	dyn, err := rld.NewDYN(dep, rld.DefaultDYNConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Each policy runs as a simulator session replaying the scenario's own
	// arrival processes for 30 simulated minutes.
	const horizon = 1800
	ctx := context.Background()
	fmt.Println("\n30 simulated minutes under bursty sensor load:")
	fmt.Printf("%-6s %14s %14s %12s %12s\n", "policy", "latency(ms)", "produced", "migrations", "overhead")
	for _, pol := range []rld.Policy{rod, dyn, dep.NewPolicy(sc.BatchSize)} {
		pipe, err := rld.Open(ctx, dep, pol, rld.WithSimulation(sc), rld.WithHorizon(horizon))
		if err != nil {
			log.Fatal(err)
		}
		res, err := rld.Replay(ctx, pipe, sc.Arrivals(horizon))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %14.1f %14.0f %12d %11.1f%%\n",
			res.Policy, res.MeanLatencyMS, res.Produced,
			res.Migrations, 100*res.OverheadRatio())
	}
	fmt.Println("\nRLD holds the lowest latency with zero migrations; DYN pays")
	fmt.Println("suspension downtime chasing the bursts; ROD executes a single")
	fmt.Println("ordering that is wrong half of the time.")

	// The same three policies — unchanged — on the other substrate: the
	// live sharded engine processing real tuples through worker pools.
	// Per-pair match targets are per-mille so a probe over the 60 s
	// window fans out to ≈1 match.
	makeFeed := func() rld.Feed {
		srcs := make([]*rld.Source, len(q.Streams))
		for i, s := range q.Streams {
			srcs[i] = rld.NewSource(s,
				rld.ConstProfile(q.Rates[s]),
				rld.KeyDist{Target: rld.ConstProfile(0.002), Cold: 4096},
				rld.UniformDist{A: 0, B: 100}, 1000+int64(i))
		}
		return rld.NewSourceFeed(srcs, 50, 120) // 2 minutes of tuples
	}
	// Fresh policy instances for the second substrate: DYN is stateful
	// (cooldown clock, live assignment), and the sim run above already
	// consumed the first set. DYN's absolute activation floor is in
	// simulator cost-units; the engine reports queued message counts, so
	// retune it to the engine's scale or migration can never trigger.
	rod2, err := rld.NewROD(dep)
	if err != nil {
		log.Fatal(err)
	}
	dynCfg := rld.DefaultDYNConfig()
	dynCfg.ActivationFloor = 2 // queued messages, not cost-units
	dynCfg.CooldownSeconds = 10
	dyn2, err := rld.NewDYN(dep, dynCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSame policies on the live engine (2 minutes of real tuples),")
	fmt.Println("each as a Pipeline session replaying the recorded feed:")
	fmt.Printf("%-6s %14s %14s %12s %12s\n", "policy", "latency(ms)", "produced", "migrations", "plans used")
	for _, pol := range []rld.Policy{rod2, dyn2, dep.NewPolicy(50)} {
		pipe, err := rld.Open(ctx, dep, pol)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := rld.Replay(ctx, pipe, makeFeed())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %14.2f %14.0f %12d %12d\n",
			rep.Policy, rep.MeanLatencyMS, rep.Produced, rep.Migrations, rep.PlanCount())
	}
	fmt.Println("\nOne policy layer, two substrates, one session API: internal/runtime")
	fmt.Println("decouples the load-distribution strategy from what executes it.")

	// Chaos: the same live-engine workload under a scripted single-node
	// crash+recovery (checkpoint-restore from 15 s window snapshots).
	// Every policy faces the identical schedule; completeness compares
	// each faulted run against that policy's own fault-free run above.
	plan, err := rld.ParseFaultPlan("crash:1@40-70;mode=checkpoint;every=15")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSame engine workload under chaos (%s):\n", plan)
	fmt.Printf("%-6s %14s %14s %12s %12s\n", "policy", "produced", "complete", "migrations", "lost")
	// Fresh policy instances per run, as always: DYN carries state.
	mkPolicy := []func() rld.Policy{
		func() rld.Policy {
			p, err := rld.NewROD(dep)
			if err != nil {
				log.Fatal(err)
			}
			return p
		},
		func() rld.Policy {
			p, err := rld.NewDYN(dep, dynCfg)
			if err != nil {
				log.Fatal(err)
			}
			return p
		},
		func() rld.Policy { return dep.NewPolicy(50) },
	}
	for _, mk := range mkPolicy {
		basePipe, err := rld.Open(ctx, dep, mk())
		if err != nil {
			log.Fatal(err)
		}
		base, err := rld.Replay(ctx, basePipe, makeFeed())
		if err != nil {
			log.Fatal(err)
		}
		faultPipe, err := rld.Open(ctx, dep, mk(), rld.WithFaults(plan))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := rld.Replay(ctx, faultPipe, makeFeed())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %14.0f %13.1f%% %12d %12.0f\n",
			rep.Policy, rep.Produced, 100*rld.Completeness(rep, base), rep.Migrations, rep.TuplesLost)
	}
	fmt.Println("\nRLD rides out the crash without migrating: parked work replays")
	fmt.Println("on recovery and the join windows restore from the last snapshot.")
	fmt.Println("DYN answers the failure with emergency re-placement migrations.")
}
