package sim

import (
	"math"
	"testing"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/runtime"
)

// crashPlan crashes node 1 for [100, 160).
func crashPlan(mode chaos.RecoveryMode) *chaos.FaultPlan {
	return &chaos.FaultPlan{
		Mode:   mode,
		Faults: []chaos.Fault{{Kind: chaos.Crash, Node: 1, At: 100, Until: 160}},
	}
}

func TestCrashLoseStateDropsWork(t *testing.T) {
	sc, pol := testScenario(10000)
	base := replay(t, sc, pol, 600, nil)
	scF, polF := testScenario(10000)
	faulted := replay(t, scF, polF, 600, crashPlan(chaos.LoseState))
	if faulted.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", faulted.Crashes)
	}
	if math.Abs(faulted.DownSeconds-60) > 1e-9 {
		t.Fatalf("down seconds = %v, want 60", faulted.DownSeconds)
	}
	if faulted.TuplesLost <= 0 {
		t.Fatal("lose-state crash lost nothing")
	}
	if faulted.Produced >= base.Produced {
		t.Fatalf("faulted produced %v ≥ fault-free %v", faulted.Produced, base.Produced)
	}
	// Node 1 hosts the middle operator: every batch traverses it, so the
	// 10% outage should cost roughly 10% of output, not more than ~20%.
	comp := faulted.Produced / base.Produced
	if comp < 0.7 || comp > 0.99 {
		t.Fatalf("completeness %v outside plausible (0.7, 0.99)", comp)
	}
}

func TestCrashCheckpointStallsAndReplays(t *testing.T) {
	sc, pol := testScenario(10000)
	base := replay(t, sc, pol, 600, nil)
	scF, polF := testScenario(10000)
	faulted := replay(t, scF, polF, 600, crashPlan(chaos.Checkpoint))
	if faulted.TuplesLost != 0 {
		t.Fatalf("checkpoint crash lost %v tuples", faulted.TuplesLost)
	}
	// Ample capacity: the backlog frozen during the outage replays at
	// recovery, so nearly everything still comes out by the horizon.
	comp := faulted.Produced / base.Produced
	if comp < 0.95 {
		t.Fatalf("checkpoint completeness %v < 0.95", comp)
	}
	if faulted.Crashes != 1 || faulted.DownSeconds != 60 {
		t.Fatalf("accounting: crashes=%d down=%v", faulted.Crashes, faulted.DownSeconds)
	}
}

func TestCrashSpanningHorizonAccruesDowntime(t *testing.T) {
	sc, pol := testScenario(10000)
	res := replay(t, sc, pol, 600, &chaos.FaultPlan{
		Mode:   chaos.Checkpoint,
		Faults: []chaos.Fault{{Kind: chaos.Crash, Node: 0, At: 500, Until: 900}},
	})
	if math.Abs(res.DownSeconds-100) > 1e-9 {
		t.Fatalf("down seconds = %v, want 100 (horizon-clipped)", res.DownSeconds)
	}
}

func TestSlowdownStretchesService(t *testing.T) {
	// Capacity tight enough that a half-speed node visibly lags: compare
	// mean latency with and without the slowdown.
	sc, pol := testScenario(60)
	base := replay(t, sc, pol, 300, nil)
	scF, polF := testScenario(60)
	slowed := replay(t, scF, polF, 300, &chaos.FaultPlan{Faults: []chaos.Fault{
		{Kind: chaos.Slowdown, Node: 0, At: 50, Until: 250, Factor: 0.3},
	}})
	if slowed.MeanLatencyMS <= base.MeanLatencyMS {
		t.Fatalf("slowdown did not raise latency: %vms ≤ %vms",
			slowed.MeanLatencyMS, base.MeanLatencyMS)
	}
	if slowed.Crashes != 0 || slowed.DownSeconds != 0 {
		t.Fatalf("slowdown accounted as crash: %d/%v", slowed.Crashes, slowed.DownSeconds)
	}
}

// downWatcher records the Rebalance load vector at each tick.
type downWatcher struct {
	scripted
	seen [][]float64
}

func (d *downWatcher) Rebalance(t float64, loads []float64, a physical.Assignment) *runtime.Migration {
	cp := append([]float64(nil), loads...)
	d.seen = append(d.seen, cp)
	return nil
}

func TestDownNodeReportsInfLoad(t *testing.T) {
	sc, pol := testScenario(10000)
	w := &downWatcher{scripted: *pol}
	replay(t, sc, w, 300, crashPlan(chaos.Checkpoint))
	sawDown, sawUp := false, false
	for _, loads := range w.seen {
		if runtime.NodeDown(loads[1]) {
			sawDown = true
		} else {
			sawUp = true
		}
		if runtime.NodeDown(loads[0]) {
			t.Fatal("live node reported down")
		}
	}
	if !sawDown || !sawUp {
		t.Fatalf("load sentinel coverage: down=%v up=%v", sawDown, sawUp)
	}
}

func TestMigrationOffDownNodeMovesFrozenQueue(t *testing.T) {
	// Crash node 1 (hosting op 1) in checkpoint mode, then script a
	// migration of op 1 to node 0 at the next tick: the frozen queue must
	// move and drain on the live node.
	sc, pol := testScenario(10000)
	plan := &chaos.FaultPlan{
		Mode:   chaos.Checkpoint,
		Faults: []chaos.Fault{{Kind: chaos.Crash, Node: 1, At: 100, Until: 550}},
	}
	pol.migrations = make([]runtime.Migration, 25)
	for i := range pol.migrations {
		// Same-node requests are uncounted no-ops: op 1 sits on node 1
		// until the move at tick 22, and on node 0 afterwards.
		if i < 21 {
			pol.migrations[i] = runtime.Migration{Op: 1, To: 1}
		} else {
			pol.migrations[i] = runtime.Migration{Op: 1, To: 0}
		}
	}
	pol.migrations[21] = runtime.Migration{Op: 1, To: 0, Downtime: 0.5}
	res := replay(t, sc, pol, 600, plan)
	if res.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", res.Migrations)
	}
	base, polB := testScenario(10000)
	baseRes := replay(t, base, polB, 600, nil)
	comp := res.Produced / baseRes.Produced
	if comp < 0.9 {
		t.Fatalf("migration off dead node completeness %v < 0.9", comp)
	}
}
