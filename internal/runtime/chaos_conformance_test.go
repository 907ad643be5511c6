package runtime_test

// Cross-substrate fault conformance: the same fault schedule applied to
// the same workload must degrade both substrates comparably. The
// simulator models a crash as zero capacity (queue dropped or frozen per
// the recovery mode); the engine genuinely kills the node's worker pool
// and rebuilds join-window state on recovery — different mechanisms, so
// the check compares *completeness* (faulted produced / fault-free
// produced) rather than raw counts.
//
// The file also holds the chaos acceptance scenario: under a scripted
// single-node crash+recovery on the live engine, RLD's robust plan needs
// no migration yet keeps ≥90% result-completeness, while DYN's recovery
// path emits emergency re-placement migrations under the identical
// schedule.

import (
	"math"
	"testing"

	"rld/internal/chaos"
	"rld/internal/cluster"
	"rld/internal/query"
	rt "rld/internal/runtime"
)

// confFaultPlan crashes node 1 for [150, 210) — 10% of the 600 s horizon.
func confFaultPlan(mode chaos.RecoveryMode) *chaos.FaultPlan {
	return &chaos.FaultPlan{
		Mode:            mode,
		CheckpointEvery: 30,
		Faults:          []chaos.Fault{{Kind: chaos.Crash, Node: 1, At: 150, Until: 210}},
	}
}

// completenessOn runs a fresh policy on one substrate without and with the
// fault plan and returns (completeness, faulted report).
func completenessOn(t *testing.T, run runner, mkPol func() rt.Policy, fp *chaos.FaultPlan) (float64, *rt.Report) {
	t.Helper()
	base, err := run(mkPol(), nil)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := run(mkPol(), fp)
	if err != nil {
		t.Fatal(err)
	}
	if base.Produced == 0 {
		t.Fatal("fault-free run produced nothing")
	}
	return rt.Completeness(faulted, base), faulted
}

func TestChaosConformanceSimVsEngine(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{
			PolicyName: "FIXED",
			Plan:       query.Plan{1, 0},
			Assign:     []int{0, 1},
		}
	}
	runSim, runEng := simRunner(q, cl), engineRunner(q, cl)

	for _, mode := range []chaos.RecoveryMode{chaos.Checkpoint, chaos.LoseState} {
		fp := confFaultPlan(mode)
		simC, simRep := completenessOn(t, runSim, mkPol, fp)
		engC, engRep := completenessOn(t, runEng, mkPol, fp)
		t.Logf("mode=%s: sim completeness %.4f (lost %.0f), engine completeness %.4f (lost %.0f)",
			mode, simC, simRep.TuplesLost, engC, engRep.TuplesLost)
		for _, rep := range []*rt.Report{simRep, engRep} {
			if rep.Crashes != 1 {
				t.Errorf("mode=%s %s: crashes = %d, want 1", mode, rep.Substrate, rep.Crashes)
			}
			if math.Abs(rep.DownSeconds-60) > 1e-6 {
				t.Errorf("mode=%s %s: down seconds = %v, want 60", mode, rep.Substrate, rep.DownSeconds)
			}
		}
		// The substrates degrade through different mechanisms (dropped
		// cost-units vs real window loss), so the agreement band is wider
		// than the fault-free conformance check's 15%.
		if math.Abs(simC-engC) > 0.20 {
			t.Errorf("mode=%s: sim completeness %.4f vs engine %.4f (>0.20 apart)", mode, simC, engC)
		}
		switch mode {
		case chaos.Checkpoint:
			// Parked work replays on recovery: close to lossless.
			if simC < 0.95 || engC < 0.85 {
				t.Errorf("checkpoint completeness too low: sim %.4f engine %.4f", simC, engC)
			}
			if simRep.TuplesLost != 0 {
				t.Errorf("sim checkpoint mode lost %v tuples", simRep.TuplesLost)
			}
			if engRep.Restores == 0 {
				t.Error("engine checkpoint recovery restored nothing")
			}
		case chaos.LoseState:
			// A 10% outage of the only path loses roughly 10% of output
			// (more on the engine: the join window rebuilds from empty).
			if simC > 0.97 || engC > 0.97 {
				t.Errorf("lose-state should visibly cost output: sim %.4f engine %.4f", simC, engC)
			}
			if simC < 0.70 || engC < 0.60 {
				t.Errorf("lose-state completeness implausibly low: sim %.4f engine %.4f", simC, engC)
			}
			if simRep.TuplesLost == 0 || engRep.TuplesLost == 0 {
				t.Errorf("lose-state lost nothing: sim %v engine %v", simRep.TuplesLost, engRep.TuplesLost)
			}
		}
	}
}

// TestChaosNetSubstrateSIGKILL is the distributed chaos acceptance run:
// the scripted crash literally SIGKILLs a worker process mid-run, the
// leader detects it, parks the node's backlog, and recovery respawns the
// process and rebuilds its join windows from the last checkpoint. With a
// 15 s checkpoint period, result completeness versus the fault-free
// distributed run must stay at or above 0.9 — the same gate CI's
// distributed-smoke job asserts end to end through cmd/rldrun.
func TestChaosNetSubstrateSIGKILL(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	mkPol := func() rt.Policy {
		return &rt.StaticPolicy{
			PolicyName: "FIXED",
			Plan:       query.Plan{1, 0},
			Assign:     []int{0, 1},
		}
	}
	runNet := netRunner(q, cl)
	fp := confFaultPlan(chaos.Checkpoint)
	fp.CheckpointEvery = 15 // tight snapshots: at most 15 s of window to lose
	netC, netRep := completenessOn(t, runNet, mkPol, fp)
	t.Logf("net SIGKILL: completeness %.4f (produced %.0f, lost %.0f, restores %d)",
		netC, netRep.Produced, netRep.TuplesLost, netRep.Restores)
	if netRep.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", netRep.Crashes)
	}
	if math.Abs(netRep.DownSeconds-60) > 1e-6 {
		t.Errorf("down seconds = %v, want 60", netRep.DownSeconds)
	}
	if netRep.Restores == 0 {
		t.Error("recovery restored no checkpointed state into the respawned worker")
	}
	if netC < 0.9 {
		t.Errorf("net completeness %.4f < 0.9 under SIGKILL + checkpoint recovery", netC)
	}

	// Lose-state on the net substrate: a respawned process starts empty,
	// so output must visibly drop and losses must be counted.
	lose := confFaultPlan(chaos.LoseState)
	loseC, loseRep := completenessOn(t, runNet, mkPol, lose)
	t.Logf("net SIGKILL lose-state: completeness %.4f (lost %.0f)", loseC, loseRep.TuplesLost)
	if loseRep.TuplesLost == 0 {
		t.Error("lose-state crash lost nothing")
	}
	if loseC > 0.97 || loseC < 0.60 {
		t.Errorf("lose-state completeness %.4f outside plausible (0.60, 0.97)", loseC)
	}
}

// TestChaosHorizonClippingParity pins the edge alignment between the
// substrates: a crash whose scripted recovery lies beyond the horizon
// leaves the node down on both — downtime accrues to the horizon and the
// backlog frozen/parked behind the dead node counts as lost rather than
// silently replaying on one substrate only.
func TestChaosHorizonClippingParity(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	fp := &chaos.FaultPlan{
		Mode:   chaos.Checkpoint,
		Faults: []chaos.Fault{{Kind: chaos.Crash, Node: 1, At: confHorizon - 20, Until: confHorizon + 100}},
	}
	pol := func() rt.Policy {
		return &rt.StaticPolicy{PolicyName: "FIXED", Plan: query.Plan{1, 0}, Assign: []int{0, 1}}
	}
	for _, run := range []runner{simRunner(q, cl), engineRunner(q, cl)} {
		rep, err := run(pol(), fp)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Crashes != 1 {
			t.Errorf("%s: crashes = %d, want 1", rep.Substrate, rep.Crashes)
		}
		if math.Abs(rep.DownSeconds-20) > 1.0 {
			t.Errorf("%s: down seconds = %v, want ≈20 (clipped at the horizon)", rep.Substrate, rep.DownSeconds)
		}
		if rep.TuplesLost == 0 {
			t.Errorf("%s: work stranded behind the still-down node was not counted as lost", rep.Substrate)
		}
	}
}

// TestChaosAcceptanceRLDvsDYN is the acceptance scenario: a scripted
// single-node crash+recovery on the live engine under checkpoint
// recovery. RLD completes with ≥90% of the fault-free output and zero
// migrations; DYN's failure response emits at least one emergency
// re-placement migration under the identical schedule.
func TestChaosAcceptanceRLDvsDYN(t *testing.T) {
	q := conformanceQuery()
	cl := cluster.NewHomogeneous(2, 1e6)
	fp := confFaultPlan(chaos.Checkpoint)

	// Index 0 of conformancePolicies is the RLD deployment policy, 2 is
	// DYN; fresh instances per run (DYN is stateful).
	run := engineRunner(q, cl)
	rldBase, err := run(conformancePolicies(t, q, cl)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	rldFaulted, err := run(conformancePolicies(t, q, cl)[0], fp)
	if err != nil {
		t.Fatal(err)
	}
	comp := rt.Completeness(rldFaulted, rldBase)
	t.Logf("RLD: fault-free %.0f, faulted %.0f, completeness %.4f, migrations %d",
		rldBase.Produced, rldFaulted.Produced, comp, rldFaulted.Migrations)
	if comp < 0.90 {
		t.Errorf("RLD completeness %.4f < 0.90 under crash+recovery", comp)
	}
	if rldFaulted.Migrations != 0 {
		t.Errorf("RLD migrated %d times; the robust plan needs none", rldFaulted.Migrations)
	}
	if rldFaulted.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", rldFaulted.Crashes)
	}

	dynFaulted, err := run(conformancePolicies(t, q, cl)[2], fp)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("DYN: faulted %.0f, migrations %d, downtime %.2fs",
		dynFaulted.Produced, dynFaulted.Migrations, dynFaulted.MigrationDowntime)
	if dynFaulted.Migrations < 1 {
		t.Errorf("DYN emitted no re-placement migration under the fault schedule")
	}
}
