// Command rldrun runs a fluctuating streaming workload under the three
// load-distribution policies of the paper's §6.5 study — ROD, DYN, and RLD
// — and prints their runtime metrics side by side. The workload is the
// study rldbench's §6.5 figures sweep (experiments.Study). It always runs
// on the simulator; -live adds the in-process engine and -distributed
// worker processes, each replaying that many seconds of real tuples. Every
// substrate prints one fault-free table; with -faults, every policy also
// runs under the scripted fault schedule, in a second table that reports
// each policy's completeness versus its own fault-free run.
//
//	rldrun -minutes 30 -ratio 2 -nodes 4
//	rldrun -faults "crash:1@300-420;mode=checkpoint"
//	rldrun -faults random            # seeded random crash schedule
//	rldrun -live 120                 # …plus live-engine Pipeline sessions
//	rldrun -distributed 120          # …plus leader/worker multi-process runs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"rld"
	"rld/internal/experiments"
)

func main() {
	// Re-exec entry point: when this process was spawned as a
	// distributed-mode worker, serve the worker loop and never return.
	rld.MaybeWorker()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// errUsage reports a command line rldrun cannot run; main exits 2 on it,
// after the message and the usage have gone to stderr.
var errUsage = errors.New("usage")

// usage reports a command line rldrun cannot run.
func usage(fs *flag.FlagSet, format string, a ...any) error {
	fmt.Fprintf(fs.Output(), "rldrun: "+format+"\n", a...)
	fs.Usage()
	return errUsage
}

// run parses args, runs the study and writes its tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rldrun", flag.ContinueOnError)
	ops := fs.Int("ops", 5, "number of query operators")
	nodes := fs.Int("nodes", 4, "cluster size")
	minutes := fs.Float64("minutes", 30, "simulated run length")
	ratio := fs.Float64("ratio", 2, "input-rate fluctuation ratio (1 = estimates)")
	batch := fs.Int("batch", 50, "ruster (batch) size in tuples")
	period := fs.Float64("period", 120, "selectivity fluctuation period (seconds)")
	seed := fs.Int64("seed", 42, "simulation seed")
	faults := fs.String("faults", "", `fault schedule ("crash:1@300-420;mode=checkpoint", or "random")`)
	live := fs.Float64("live", 0, "also run each policy as a live-engine Pipeline session over this many seconds of real tuples (0 = off)")
	dist := fs.Float64("distributed", 0, "also run each policy on the multi-process network substrate (leader + one worker process per node) over this many seconds of real tuples (0 = off)")
	workerBin := fs.String("worker-bin", "", "worker binary for -distributed (default: re-exec this binary)")
	minComplete := fs.Float64("mincomplete", 0, "with -faults and -live or -distributed: exit nonzero unless each live substrate's faulted RLD run reaches this completeness vs its fault-free run (0 = report only)")
	exactlyOnce := fs.Bool("exactly-once", false, "with -live or -distributed: run the live sessions with exactly-once durability (a write-ahead log in a temp dir)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	liveRun := *live > 0 || *dist > 0
	switch {
	case *minComplete < 0 || *minComplete > 1:
		return usage(fs, "-mincomplete=%v out of range: completeness is a ratio in [0,1]", *minComplete)
	case *minComplete > 0 && (*faults == "" || !liveRun):
		return usage(fs, "-mincomplete gates faulted live runs: it needs -faults and -live or -distributed")
	case *ratio <= 0:
		return usage(fs, "-ratio=%v: the fluctuation ratio must be positive", *ratio)
	case *workerBin != "" && *dist <= 0:
		return usage(fs, "-worker-bin needs -distributed")
	case *exactlyOnce && !liveRun:
		return usage(fs, "-exactly-once needs -live or -distributed")
	}

	// The §6.5 study the rldbench figures sweep, set from the flags; rldrun
	// sizes capacity with a little more headroom than the figures.
	o := experiments.DefaultStudy()
	o.Ops, o.Nodes, o.Batch, o.Seed = *ops, *nodes, *batch, *seed
	o.Horizon, o.SelPeriod, o.Headroom = *minutes*60, *period, 2.5
	o.RateFor = func(_ string, base float64) rld.Profile { return rld.ConstProfile(base * *ratio) }
	study, err := experiments.NewStudy(o)
	if errors.Is(err, experiments.ErrBadStudy) {
		return usage(fs, "%v", err)
	} else if err != nil {
		return err
	}

	var plan *rld.FaultPlan
	if *faults == "random" {
		plan = rld.RandomFaults(rld.DefaultFaultConfig(), *nodes, o.Horizon, *seed)
	} else if *faults != "" {
		if plan, err = rld.ParseFaultPlan(*faults); err != nil {
			return err
		}
		if err := plan.Validate(*nodes); err != nil {
			return err
		}
	}

	// The substrates, each with the heading of its tables.
	type arm struct {
		sub   experiments.Substrate
		title string
	}
	arms := []arm{{study.Sim(), fmt.Sprintf("%d simulated minutes, ratio %.0f%%, %d nodes × %.0f capacity",
		int(*minutes), *ratio*100, *nodes, study.Deployment.Cluster.Nodes[0].Capacity)}}
	cfg := rld.DefaultEngineConfig()
	if *exactlyOnce {
		if cfg.WALDir, err = os.MkdirTemp("", "rldrun-wal-"); err != nil {
			return err
		}
		defer os.RemoveAll(cfg.WALDir)
	}
	if *live > 0 {
		arms = append(arms, arm{study.Engine(*live, cfg),
			fmt.Sprintf("live engine: %.0fs of real tuples per policy (Pipeline sessions)", *live)})
	}
	if *dist > 0 {
		var workerCmd []string
		if *workerBin != "" {
			workerCmd = []string{*workerBin}
		}
		arms = append(arms, arm{study.Net(*dist, cfg, workerCmd),
			fmt.Sprintf("distributed: %.0fs of real tuples per policy (leader + %d worker processes)", *dist, *nodes)})
	}

	for i, a := range arms {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%s\n\n", a.title)
		fmt.Fprintf(stdout, "%-6s %13s %13s %11s %11s %10s %9s\n",
			"policy", "latency ms", "produced", "dropped", "migrations", "downtime", "overhead")
		base, err := study.Run(a.sub, nil)
		if err != nil {
			return err
		}
		for _, res := range base {
			fmt.Fprintf(stdout, "%-6s %13.1f %13.0f %11.0f %11d %9.1fs %8.1f%%\n",
				res.Policy, res.MeanLatencyMS, res.Produced, res.Dropped,
				res.Migrations, res.MigrationDowntime, 100*res.OverheadRatio())
		}
		if plan == nil {
			continue
		}

		fmt.Fprintf(stdout, "\nfault schedule: %s\n\n", plan)
		fmt.Fprintf(stdout, "%-6s %13s %13s %11s %11s %10s %9s\n",
			"policy", "latency ms", "produced", "lost", "migrations", "down", "complete")
		faulted, err := study.Run(a.sub, plan)
		if err != nil {
			return err
		}
		var complete float64
		for i, res := range faulted {
			complete = rld.Completeness(res, base[i])
			fmt.Fprintf(stdout, "%-6s %13.1f %13.0f %11.0f %11d %9.1fs %8.1f%%\n",
				res.Policy, res.MeanLatencyMS, res.Produced, res.TuplesLost,
				res.Migrations, res.DownSeconds, 100*complete)
		}
		// RLD runs last; -mincomplete gates it on the live substrates, the
		// CI chaos steps' assertion.
		if a.sub.Name != "sim" && complete < *minComplete {
			return fmt.Errorf("%s: RLD completeness %.3f below required %.3f", a.sub.Name, complete, *minComplete)
		}
	}
	return nil
}
