package sim

import (
	"context"
	"math"
	"testing"

	"rld/internal/chaos"
	"rld/internal/cluster"
	"rld/internal/gen"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
)

// scripted is a minimal Policy for driving the simulator in tests.
type scripted struct {
	name       string
	assign     physical.Assignment
	plan       query.Plan
	classify   float64
	decide     float64
	migrations []runtime.Migration // popped one per tick
	planFor    func(t float64) query.Plan
}

func (s *scripted) Name() string                   { return s.name }
func (s *scripted) Placement() physical.Assignment { return s.assign.Clone() }
func (s *scripted) PlanFor(t float64, _ stats.Snapshot) query.Plan {
	if s.planFor != nil {
		return s.planFor(t)
	}
	return s.plan
}
func (s *scripted) ClassifyOverhead() float64 { return s.classify }
func (s *scripted) DecisionOverhead() float64 { return s.decide }
func (s *scripted) Rebalance(float64, []float64, physical.Assignment) *runtime.Migration {
	if len(s.migrations) == 0 {
		return nil
	}
	m := s.migrations[0]
	s.migrations = s.migrations[1:]
	return &m
}

// testScenario: 3-op query, constant stats, ample capacity by default.
func testScenario(capacity float64) (*Scenario, *scripted) {
	q := query.NewNWayJoin("Q", 3, 2)
	sc := &Scenario{
		Query:     q,
		Rates:     map[string]gen.Profile{},
		Sels:      make([]gen.Profile, 3),
		Cluster:   cluster.NewHomogeneous(2, capacity),
		BatchSize: 10,
		Seed:      1,
	}
	for _, s := range q.Streams {
		sc.Rates[s] = gen.ConstProfile(q.Rates[s])
	}
	for i := range sc.Sels {
		sc.Sels[i] = gen.ConstProfile(q.Ops[i].Sel)
	}
	pol := &scripted{
		name:   "TEST",
		assign: physical.Assignment{0, 1, 0},
		plan:   query.Plan{0, 1, 2},
	}
	return sc, pol
}

// open starts a session of pol on sc for horizon virtual seconds, under
// faults when non-nil.
func open(t *testing.T, sc *Scenario, pol runtime.Policy, horizon float64, faults *chaos.FaultPlan) *Session {
	t.Helper()
	ss, err := OpenSession(sc, pol, runtime.SessionOptions{Horizon: horizon, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// replay runs pol on sc for horizon virtual seconds, fed by the
// scenario's own arrivals, under faults when non-nil.
func replay(t *testing.T, sc *Scenario, pol runtime.Policy, horizon float64, faults *chaos.FaultPlan) *runtime.Report {
	t.Helper()
	res, err := runtime.Replay(context.Background(), open(t, sc, pol, horizon, faults), sc.Arrivals(horizon))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimThroughputMatchesSelectivities(t *testing.T) {
	sc, pol := testScenario(10000)
	res := replay(t, sc, pol, 300, nil)
	if res.Ingested == 0 {
		t.Fatal("nothing ingested")
	}
	// Expected output = ingested × Πδ.
	want := res.Ingested
	for i := range sc.Sels {
		want *= sc.Query.Ops[i].Sel
	}
	if math.Abs(res.Produced-want) > 0.05*want+1 {
		t.Fatalf("produced %v, want ≈%v", res.Produced, want)
	}
	if res.Dropped != 0 {
		t.Fatal("no drops expected with ample capacity")
	}
}

func TestSimLatencyLowWhenUnderloaded(t *testing.T) {
	sc, pol := testScenario(100000)
	res := replay(t, sc, pol, 300, nil)
	if res.MeanLatencyMS == 0 {
		t.Fatal("no latency observations")
	}
	// Service of a 10-tuple batch over 3 ops at 100k units/s is sub-ms.
	if res.MeanLatencyMS > 50 {
		t.Fatalf("underloaded mean latency %vms too high", res.MeanLatencyMS)
	}
}

func TestSimOverloadGrowsLatencyAndStarvesOutput(t *testing.T) {
	scLo, polLo := testScenario(20000)
	lo := replay(t, scLo, polLo, 300, nil)
	scHi, polHi := testScenario(5) // brutally undersized: ~19 units/s load vs 10 capacity
	hi := replay(t, scHi, polHi, 300, nil)
	if hi.MeanLatencyMS <= 10*lo.MeanLatencyMS {
		t.Fatalf("overload latency %vms should dwarf underload %vms", hi.MeanLatencyMS, lo.MeanLatencyMS)
	}
	ratioLo := lo.Produced / lo.Ingested
	ratioHi := hi.Produced / hi.Ingested
	if ratioHi >= ratioLo*0.8 {
		t.Fatalf("overloaded output ratio %v should collapse vs %v", ratioHi, ratioLo)
	}
}

func TestSimAdmissionControlDrops(t *testing.T) {
	sc, pol := testScenario(5)
	sc.MaxQueue = 100
	res := replay(t, sc, pol, 300, nil)
	if res.Dropped == 0 {
		t.Fatal("overload with MaxQueue must shed load")
	}
}

func TestSimMigrationMechanics(t *testing.T) {
	sc, pol := testScenario(10000)
	pol.migrations = []runtime.Migration{{Op: 0, To: 1, Downtime: 2}}
	ss := open(t, sc, pol, 100, nil)
	res, err := runtime.Replay(context.Background(), ss, sc.Arrivals(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", res.Migrations)
	}
	if res.MigrationDowntime != 2 {
		t.Fatalf("Downtime = %v, want 2", res.MigrationDowntime)
	}
	if got := ss.s.assign; got[0] != 1 {
		t.Fatalf("op 0 should live on node 1 after migration: %v", got)
	}
	// The system keeps producing across the migration.
	if res.Produced == 0 {
		t.Fatal("no output despite migration completing")
	}
}

func TestSimMigrationValidation(t *testing.T) {
	sc, pol := testScenario(10000)
	pol.migrations = []runtime.Migration{
		{Op: -1, To: 1, Downtime: 1}, // invalid op
		{Op: 0, To: 99, Downtime: 1}, // invalid node
		{Op: 2, To: 0, Downtime: -5}, // same node (op2 already on 0)
	}
	res := replay(t, sc, pol, 60, nil)
	if res.Migrations != 0 {
		t.Fatalf("invalid migrations applied: %d", res.Migrations)
	}
}

func TestSimPlanSwitchCounting(t *testing.T) {
	sc, pol := testScenario(10000)
	a := query.Plan{0, 1, 2}
	b := query.Plan{2, 1, 0}
	pol.planFor = func(t float64) query.Plan {
		if int(t/50)%2 == 0 {
			return a
		}
		return b
	}
	res := replay(t, sc, pol, 200, nil)
	if res.PlanSwitches < 2 {
		t.Fatalf("PlanSwitches = %d, want ≥2", res.PlanSwitches)
	}
}

func TestSimOverheadAccounting(t *testing.T) {
	sc, pol := testScenario(10000)
	pol.classify = 0.5
	pol.decide = 2
	res := replay(t, sc, pol, 100, nil)
	if res.OverheadWork == 0 {
		t.Fatal("overhead not accounted")
	}
	if res.QueryWork == 0 {
		t.Fatal("query work not accounted")
	}
	if res.OverheadRatio() <= 0 {
		t.Fatal("overhead ratio should be positive")
	}
}

func TestSimTimelineMonotone(t *testing.T) {
	sc, pol := testScenario(10000)
	res := replay(t, sc, pol, 200, nil)
	tl := res.ProducedOverTime
	if len(tl.Times) < 10 {
		t.Fatalf("timeline too sparse: %d samples", len(tl.Times))
	}
	for i := 1; i < len(tl.Values); i++ {
		if tl.Values[i] < tl.Values[i-1] {
			t.Fatal("cumulative production decreased")
		}
	}
	if final := tl.Values[len(tl.Values)-1]; final != res.Produced {
		t.Fatalf("timeline final %v != produced %v", final, res.Produced)
	}
}

func TestSimRateProfileDrivesIngest(t *testing.T) {
	sc, pol := testScenario(10000)
	for _, s := range sc.Query.Streams {
		sc.Rates[s] = gen.StepProfile{Times: []float64{200}, Vals: []float64{2, 8}}
	}
	res := replay(t, sc, pol, 400, nil)
	early := res.ProducedOverTime.ValueAt(200)
	late := res.Produced - early
	if late < 2*early {
		t.Fatalf("4× rate step should multiply output: early %v late %v", early, late)
	}
}

func TestSimZeroRateStreamIdles(t *testing.T) {
	sc, pol := testScenario(10000)
	for _, s := range sc.Query.Streams {
		sc.Rates[s] = gen.ConstProfile(0)
	}
	res := replay(t, sc, pol, 100, nil)
	if res.Ingested != 0 || res.Produced != 0 {
		t.Fatalf("zero-rate run ingested %v produced %v", res.Ingested, res.Produced)
	}
}

func TestSimRejectsBadInputs(t *testing.T) {
	if _, err := OpenSession(&Scenario{}, &scripted{}, runtime.SessionOptions{}); err == nil {
		t.Fatal("missing query/cluster must error")
	}
	sc, _ := testScenario(100)
	if _, err := OpenSession(sc, &scripted{name: "X", assign: physical.NewAssignment(3)}, runtime.SessionOptions{}); err == nil {
		t.Fatal("incomplete placement must error")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() *struct{ produced, latency float64 } {
		sc, pol := testScenario(5000)
		res := replay(t, sc, pol, 150, nil)
		return &struct{ produced, latency float64 }{res.Produced, res.MeanLatencyMS}
	}
	a, b := run(), run()
	if a.produced != b.produced || a.latency != b.latency {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestScenarioTruthAccessors(t *testing.T) {
	sc, _ := testScenario(100)
	sc.Sels[0] = gen.ConstProfile(5) // out of range: must clamp
	if got := sc.SelAt(0, 0); got != 1 {
		t.Fatalf("SelAt clamp = %v, want 1", got)
	}
	sc.Sels[0] = gen.ConstProfile(-1)
	if got := sc.SelAt(0, 0); got != 0 {
		t.Fatalf("SelAt clamp = %v, want 0", got)
	}
	sc.Rates["S1"] = gen.ConstProfile(-4)
	if got := sc.RateAt("S1", 0); got != 0 {
		t.Fatalf("RateAt clamp = %v, want 0", got)
	}
	if got := sc.RateAt("missing", 0); got != 0 {
		t.Fatalf("unknown stream rate = %v, want query default 0", got)
	}
	sels := sc.TruthSels(0)
	if len(sels) != 3 {
		t.Fatal("TruthSels arity")
	}
	rates := sc.TruthRates(0)
	if len(rates) != 3 {
		t.Fatal("TruthRates arity")
	}
}
