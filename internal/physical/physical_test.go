package physical

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rld/internal/cluster"
	"rld/internal/cost"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
	"rld/internal/robust"
)

// mkPlans builds k synthetic logical plans over nOps operators with random
// loads and weights.
func mkPlans(rng *rand.Rand, k, nOps int, loadScale float64) []LogicalPlan {
	plans := make([]LogicalPlan, k)
	for i := range plans {
		loads := make([]float64, nOps)
		for j := range loads {
			loads[j] = rng.Float64() * loadScale
		}
		plans[i] = LogicalPlan{
			Plan:   query.IdentityPlan(nOps),
			Weight: rng.Float64(),
			Area:   1 + rng.Intn(50),
			Loads:  loads,
		}
	}
	return plans
}

// solutionFixture produces real planner inputs from an end-to-end robust
// solution.
func solutionFixture(nOps, steps int) ([]LogicalPlan, *cost.Evaluator) {
	q := query.NewNWayJoin("Q", nOps, 2)
	dims := []paramspace.Dim{
		paramspace.SelDim(0, q.Ops[0].Sel, 3),
		paramspace.SelDim(nOps-2, q.Ops[nOps-2].Sel, 3),
	}
	s := paramspace.New(dims, steps)
	ev := cost.NewEvaluator(q, s)
	res := robust.WRP(optimizer.NewCounter(optimizer.NewRank(ev)), ev, robust.DefaultConfig())
	res.AssignWeights(paramspace.NewOccurrenceModel(s))
	return FromRobust(res, ev), ev
}

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(4)
	if a.Complete() {
		t.Fatal("fresh assignment should be incomplete")
	}
	a[0], a[1], a[2], a[3] = 0, 1, 0, 1
	if !a.Complete() {
		t.Fatal("should be complete")
	}
	ops := a.NodeOps(2)
	if len(ops[0]) != 2 || len(ops[1]) != 2 {
		t.Fatalf("NodeOps = %v", ops)
	}
	loads := a.NodeLoads([]float64{1, 2, 3, 4}, 2)
	if loads[0] != 4 || loads[1] != 6 {
		t.Fatalf("NodeLoads = %v", loads)
	}
	b := a.Clone()
	b[0] = 1
	if a[0] != 0 {
		t.Fatal("Clone aliased")
	}
}

func TestSupports(t *testing.T) {
	c := cluster.NewHomogeneous(2, 10)
	lp := LogicalPlan{Loads: []float64{6, 6, 3}}
	a := Assignment{0, 1, 1}
	if !a.Supports(lp, c) {
		t.Fatal("6 | 6+3=9 should fit capacity 10")
	}
	a = Assignment{0, 0, 1}
	if a.Supports(lp, c) {
		t.Fatal("12 on node 0 must not fit capacity 10")
	}
}

func TestLLFBalances(t *testing.T) {
	c := cluster.NewHomogeneous(3, 100)
	loads := []float64{9, 8, 7, 3, 2, 1}
	a, ok := LLF(loads, c)
	if !ok {
		t.Fatal("LLF failed with ample capacity")
	}
	nl := a.NodeLoads(loads, 3)
	// LPT on these loads gives a perfectly balanced 10/10/10.
	for _, l := range nl {
		if l != 10 {
			t.Fatalf("node loads %v, want balanced 10s", nl)
		}
	}
}

func TestLLFInfeasible(t *testing.T) {
	c := cluster.NewHomogeneous(2, 5)
	if _, ok := LLF([]float64{6, 1}, c); ok {
		t.Fatal("operator larger than any node must fail")
	}
	if _, ok := LLF([]float64{4, 4, 4}, c); ok {
		t.Fatal("12 total load cannot fit 10 total capacity")
	}
}

func TestLLFRespectsCapacityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		c := cluster.NewHomogeneous(n, 10)
		loads := make([]float64, 3+rng.Intn(10))
		for i := range loads {
			loads[i] = rng.Float64() * 6
		}
		a, ok := LLF(loads, c)
		if !ok {
			return true // infeasible inputs are fine
		}
		for _, l := range a.NodeLoads(loads, n) {
			if l > 10+1e-9 {
				return false
			}
		}
		return a.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPhySupportsAllWhenAmple(t *testing.T) {
	plans, ev := solutionFixture(5, 8)
	total, biggest := 0.0, 0.0
	for _, lp := range maxLoads(plans, 5) {
		total += lp
		if lp > biggest {
			biggest = lp
		}
	}
	// Ample: every node can host the heaviest operator with room.
	per := total * 1.5 / 3
	if per < biggest*1.5 {
		per = biggest * 1.5
	}
	c := cluster.NewHomogeneous(3, per)
	p := GreedyPhy(plans, c, len(ev.Query().Ops))
	if p == nil {
		t.Fatal("GreedyPhy failed with ample capacity")
	}
	if len(p.Supported) != len(plans) {
		t.Fatalf("supported %d/%d plans despite ample capacity", len(p.Supported), len(plans))
	}
	if !p.Assign.Complete() {
		t.Fatal("incomplete assignment")
	}
}

func TestGreedyPhyDropsLeastWeighted(t *testing.T) {
	// Two plans with conflicting heavy profiles; capacity admits only one.
	plans := []LogicalPlan{
		{Plan: query.Plan{0, 1}, Weight: 0.9, Loads: []float64{8, 8}},
		{Plan: query.Plan{1, 0}, Weight: 0.1, Loads: []float64{8, 8}},
	}
	// lpmax = {8,8} needs 16 total; two nodes of 9 fit it (8|8). Make it
	// harder: loads that only fit alone.
	plans[1].Loads = []float64{9, 9}
	c := cluster.NewHomogeneous(2, 9)
	p := GreedyPhy(plans, c, 2)
	if p == nil {
		t.Fatal("GreedyPhy found nothing")
	}
	// lpmax over both = {9,9} → fits 9|9 exactly; both supported? plan 0
	// loads {8,8} fits, plan 1 {9,9} fits. So both supported.
	if len(p.Supported) != 2 {
		t.Fatalf("supported = %v", p.Supported)
	}
	// Now shrink capacity so only plan 0 can be supported.
	c = cluster.NewHomogeneous(2, 8)
	p = GreedyPhy(plans, c, 2)
	if p == nil {
		t.Fatal("GreedyPhy found nothing at tight capacity")
	}
	if len(p.Supported) != 1 || plans[p.Supported[0]].Weight != 0.9 {
		t.Fatalf("should keep the heavy-weight plan; got %v", p.Supported)
	}
}

func TestGreedyPhyEmptyPlans(t *testing.T) {
	c := cluster.NewHomogeneous(2, 10)
	p := GreedyPhy(nil, c, 3)
	if p == nil || !p.Assign.Complete() {
		t.Fatal("empty solution should still produce a placement")
	}
	if p.Score != 0 {
		t.Fatal("empty solution score must be 0")
	}
}

func TestGreedyPhyTotalInfeasible(t *testing.T) {
	plans := []LogicalPlan{{Plan: query.Plan{0}, Weight: 1, Loads: []float64{100}}}
	c := cluster.NewHomogeneous(2, 1)
	if p := GreedyPhy(plans, c, 1); p != nil {
		t.Fatalf("expected nil for impossible placement, got %v", p)
	}
}

func TestOptPruneMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nOps := 4 + rng.Intn(3)
		k := 2 + rng.Intn(4)
		plans := mkPlans(rng, k, nOps, 5)
		c := cluster.NewHomogeneous(2+rng.Intn(3), 8)
		op := OptPrune(plans, c, nOps)
		ex := Exhaustive(plans, c, nOps)
		if (op == nil) != (ex == nil) {
			t.Fatalf("seed %d: one of OptPrune/Exhaustive nil", seed)
		}
		if op == nil {
			continue
		}
		if math.Abs(op.Score-ex.Score) > 1e-9 {
			t.Fatalf("seed %d: OptPrune score %v != exhaustive %v", seed, op.Score, ex.Score)
		}
	}
}

func TestOptPruneBeatsOrMatchesGreedy(t *testing.T) {
	for seed := int64(20); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plans := mkPlans(rng, 4, 6, 4)
		c := cluster.NewHomogeneous(3, 6)
		g := GreedyPhy(plans, c, 6)
		o := OptPrune(plans, c, 6)
		if o == nil {
			if g != nil {
				t.Fatalf("seed %d: OptPrune nil but greedy found %v", seed, g)
			}
			continue
		}
		gScore := 0.0
		if g != nil {
			gScore = g.Score
		}
		if o.Score < gScore-1e-9 {
			t.Fatalf("seed %d: OptPrune %v worse than greedy %v", seed, o.Score, gScore)
		}
	}
}

func TestOptPruneEarlyExitAllSupported(t *testing.T) {
	plans, ev := solutionFixture(5, 8)
	total := 0.0
	for _, l := range maxLoads(plans, 5) {
		total += l
	}
	c := cluster.NewHomogeneous(3, total*2/3)
	p, stats := OptPruneWithStats(plans, c, len(ev.Query().Ops), true)
	if p == nil || len(p.Supported) != len(plans) {
		t.Fatal("ample capacity should support all plans")
	}
	if stats.Expanded == 0 {
		t.Fatal("no vertices expanded?")
	}
}

func TestOptPruneBoundReducesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	plans := mkPlans(rng, 5, 8, 4)
	c := cluster.NewHomogeneous(4, 7)
	pB, sB := OptPruneWithStats(plans, c, 8, true)
	pU, sU := OptPruneWithStats(plans, c, 8, false)
	if (pB == nil) != (pU == nil) {
		t.Fatal("bounded/unbounded disagree on feasibility")
	}
	if pB != nil && math.Abs(pB.Score-pU.Score) > 1e-9 {
		t.Fatalf("bound changed optimality: %v vs %v", pB.Score, pU.Score)
	}
	if sB.Expanded > sU.Expanded {
		t.Fatalf("bound should not increase expansion: %d > %d", sB.Expanded, sU.Expanded)
	}
}

func TestOptPruneFallbackOnOversizedInput(t *testing.T) {
	// 17 operators exceeds the config-enumeration limit → greedy fallback.
	rng := rand.New(rand.NewSource(5))
	plans := mkPlans(rng, 2, 17, 1)
	c := cluster.NewHomogeneous(4, 50)
	p := OptPrune(plans, c, 17)
	if p == nil || !p.Assign.Complete() {
		t.Fatal("fallback should produce a complete placement")
	}
}

func TestExhaustiveOversizedNil(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	plans := mkPlans(rng, 2, 17, 1)
	if Exhaustive(plans, cluster.NewHomogeneous(2, 100), 17) != nil {
		t.Fatal("oversized exhaustive should return nil")
	}
}

func TestFromRobustWorstCaseLoads(t *testing.T) {
	plans, ev := solutionFixture(5, 8)
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	for _, lp := range plans {
		if len(lp.Loads) != len(ev.Query().Ops) {
			t.Fatal("load vector arity wrong")
		}
		nonzero := false
		for _, l := range lp.Loads {
			if l < 0 {
				t.Fatal("negative load")
			}
			if l > 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Fatal("all-zero loads")
		}
		if lp.Area <= 0 {
			t.Fatal("plan without area")
		}
	}
}

func TestEvaluateScoreAndArea(t *testing.T) {
	plans := []LogicalPlan{
		{Plan: query.Plan{0, 1}, Weight: 0.5, Area: 10, Loads: []float64{1, 1}},
		{Plan: query.Plan{1, 0}, Weight: 0.25, Area: 5, Loads: []float64{100, 100}},
	}
	c := cluster.NewHomogeneous(2, 3)
	a := Assignment{0, 1}
	p := evaluate(a, plans, c)
	if len(p.Supported) != 1 || p.Score != 0.5 || p.Area != 10 {
		t.Fatalf("evaluate = %+v", p)
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
}

func TestClusterHelpers(t *testing.T) {
	c := cluster.NewHomogeneous(3, 10)
	if c.N() != 3 || !c.Homogeneous() {
		t.Fatalf("cluster wrong: %v", c)
	}
	if cluster.NewHomogeneous(0, 5).N() != 1 {
		t.Fatal("zero-node cluster should clamp to 1")
	}
	if c.String() == "" || (&cluster.Cluster{Nodes: []cluster.Node{{ID: 0, Capacity: 1}, {ID: 1, Capacity: 2}}}).String() == "" {
		t.Fatal("String empty")
	}
	if (&cluster.Cluster{Nodes: []cluster.Node{{Capacity: 1}, {Capacity: 2}}}).Homogeneous() {
		t.Fatal("heterogeneous misdetected")
	}
}

// Property: OptPrune never returns a plan that violates Def. 3 for any plan
// it claims to support.
func TestOptPruneSupportSoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nOps := 3 + rng.Intn(4)
		plans := mkPlans(rng, 1+rng.Intn(5), nOps, 5)
		c := cluster.NewHomogeneous(2+rng.Intn(3), 6)
		p := OptPrune(plans, c, nOps)
		if p == nil {
			return true
		}
		for _, i := range p.Supported {
			if !p.Assign.Supports(plans[i], c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
