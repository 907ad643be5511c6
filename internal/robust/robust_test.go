package robust

import (
	"math"
	"math/rand"
	"testing"

	"rld/internal/cost"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
)

// fixture returns a 2-D space over a 5-way join where the optimal plan
// genuinely changes across the space.
func fixture(steps int) (*cost.Evaluator, func() *optimizer.Counter, optimizer.Optimizer) {
	q := query.NewNWayJoin("Q1", 5, 2)
	dims := []paramspace.Dim{
		paramspace.SelDim(0, q.Ops[0].Sel, 3),
		paramspace.SelDim(3, q.Ops[3].Sel, 3),
	}
	s := paramspace.New(dims, steps)
	ev := cost.NewEvaluator(q, s)
	ref := optimizer.NewRank(ev)
	mk := func() *optimizer.Counter { return optimizer.NewCounter(optimizer.NewRank(ev)) }
	return ev, mk, ref
}

func TestConfigAgeThreshold(t *testing.T) {
	cfg := Config{Delta: 0.1, Confidence: 0.25}
	// c0 = (1 + 1/sqrt(0.25)) / 0.1 = 30.
	if got := cfg.AgeThreshold(); got != 30 {
		t.Fatalf("AgeThreshold = %d, want 30", got)
	}
	// Defaults guard against zero values.
	if got := (Config{}).AgeThreshold(); got != 30 {
		t.Fatalf("zero config threshold = %d, want 30", got)
	}
}

func TestConfigMissProbBound(t *testing.T) {
	cfg := Config{Confidence: 0.25}
	// e^{-γ(1+2)} at γ=1 → e^-3 ≈ 0.0498.
	if got := cfg.MissProbBound(1); math.Abs(got-math.Exp(-3)) > 1e-12 {
		t.Fatalf("MissProbBound = %v", got)
	}
	if b0 := cfg.MissProbBound(0); b0 != 1 {
		t.Fatalf("zero-area bound = %v, want 1", b0)
	}
}

func TestESFullCoverage(t *testing.T) {
	ev, mk, ref := fixture(8)
	res := ES(mk(), ev.Space(), DefaultConfig())
	if res.Calls != ev.Space().NumPoints() {
		t.Fatalf("ES calls = %d, want %d", res.Calls, ev.Space().NumPoints())
	}
	if got := CertifiedCoverage(res); got != 1 {
		t.Fatalf("ES certified coverage = %v, want 1", got)
	}
	if got := Coverage(res, ev, ref, 0.0); got != 1 {
		t.Fatalf("ES exact coverage at ε=0 = %v, want 1", got)
	}
	// ES discovers every distinct optimal plan.
	truth := DistinctOptimalPlans(ev.Space(), ref)
	if res.NumPlans() != len(truth) {
		t.Fatalf("ES found %d plans, ground truth %d", res.NumPlans(), len(truth))
	}
	if MissedPlanArea(res, ev.Space(), ref) != 0 {
		t.Fatal("ES must not miss any plan")
	}
}

func TestESBudgetTruncates(t *testing.T) {
	ev, _, _ := fixture(8)
	opt := optimizer.NewBudgeted(optimizer.NewRank(ev), 10)
	res := ES(opt, ev.Space(), Config{Epsilon: 0.2, MaxCalls: 10})
	if res.Calls != 10 {
		t.Fatalf("budgeted ES calls = %d, want 10", res.Calls)
	}
	if CertifiedCoverage(res) >= 1 {
		t.Fatal("budgeted ES cannot certify the whole space")
	}
	if len(res.Uncovered) == 0 {
		t.Fatal("budgeted ES should report uncovered space")
	}
}

func TestRSStopsAndCovers(t *testing.T) {
	ev, mk, ref := fixture(8)
	cfg := DefaultConfig()
	cfg.Seed = 7
	res := RS(mk(), ev.Space(), cfg)
	if res.NumPlans() == 0 {
		t.Fatal("RS found no plans")
	}
	if !res.Terminated && res.Calls < ev.Space().NumPoints() {
		t.Fatal("RS should either terminate by aging or exhaust the grid")
	}
	cov := Coverage(res, ev, ref, cfg.Epsilon)
	if cov <= 0 {
		t.Fatal("RS coverage must be positive")
	}
	// RS certifies only sampled unit regions.
	if res.CoveredPoints() != res.Calls {
		t.Fatalf("RS certified %d points with %d calls", res.CoveredPoints(), res.Calls)
	}
}

func TestRSRespectsBudget(t *testing.T) {
	ev, _, _ := fixture(8)
	opt := optimizer.NewBudgeted(optimizer.NewRank(ev), 5)
	cfg := DefaultConfig()
	cfg.MaxCalls = 5
	res := RS(opt, ev.Space(), cfg)
	if res.Calls > 5 {
		t.Fatalf("RS exceeded budget: %d", res.Calls)
	}
}

func TestWRPFullCertification(t *testing.T) {
	ev, mk, ref := fixture(8)
	cfg := DefaultConfig()
	res := WRP(mk(), ev, cfg)
	if got := CertifiedCoverage(res); got != 1 {
		t.Fatalf("WRP certified coverage = %v, want 1 (no early stop)", got)
	}
	if len(res.Uncovered) != 0 {
		t.Fatal("WRP should leave nothing uncovered")
	}
	// Every certified point must be genuinely ε-robust... at region
	// granularity the Def-1 check guarantees the corner bound; pointwise
	// coverage should be high (the regional check is the paper's proxy).
	cov := Coverage(res, ev, ref, cfg.Epsilon)
	if cov < 0.95 {
		t.Fatalf("WRP pointwise coverage = %v, want ≥0.95", cov)
	}
	// And far fewer calls than exhaustive.
	if res.Calls >= ev.Space().NumPoints() {
		t.Fatalf("WRP used %d calls, ES would use %d", res.Calls, ev.Space().NumPoints())
	}
}

func TestWRPRegionsDisjointAndComplete(t *testing.T) {
	ev, mk, _ := fixture(8)
	res := WRP(mk(), ev, DefaultConfig())
	// The union of certified regions partitions the space exactly.
	count := map[int]int{}
	for _, rp := range res.Plans {
		for _, reg := range rp.Regions {
			reg.ForEach(func(g paramspace.GridPoint) bool {
				count[ev.Space().Ordinal(g)]++
				return true
			})
		}
	}
	if len(count) != ev.Space().NumPoints() {
		t.Fatalf("regions cover %d points, want %d", len(count), ev.Space().NumPoints())
	}
	for k, c := range count {
		if c != 1 {
			t.Fatalf("point %d covered %d times", k, c)
		}
	}
}

func TestERPTerminatesEarlyWithFewerCalls(t *testing.T) {
	ev, mk, _ := fixture(16)
	cfg := DefaultConfig()
	cfg.Delta = 0.3 // aggressive aging → early stop bites
	erp := ERP(mk(), ev, cfg)
	wrp := WRP(mk(), ev, cfg)
	if erp.Calls > wrp.Calls {
		t.Fatalf("ERP (%d calls) should not exceed WRP (%d)", erp.Calls, wrp.Calls)
	}
	es := ES(mk(), ev.Space(), cfg)
	if erp.Calls >= es.Calls {
		t.Fatalf("ERP (%d calls) should beat ES (%d)", erp.Calls, es.Calls)
	}
}

func TestERPCoverageQuality(t *testing.T) {
	ev, mk, ref := fixture(16)
	cfg := DefaultConfig()
	res := ERP(mk(), ev, cfg)
	cov := Coverage(res, ev, ref, cfg.Epsilon)
	if cov < 0.9 {
		t.Fatalf("ERP coverage = %v, want ≥0.9", cov)
	}
}

func TestERPTheorem2LargeAreasCovered(t *testing.T) {
	// Theorem 2's operative guarantee: robust plans with non-trivial area
	// are found w.h.p., so the optimality region of every large plan must
	// be ε-covered by the solution (either by the plan itself or by an
	// ε-close plan — with ε>0 the algorithm deliberately merges
	// near-identical plans, §6.3: "many logical plans with trivial cost
	// differences").
	ev, mk, ref := fixture(16)
	cfg := DefaultConfig()
	res := ERP(mk(), ev, cfg)
	truth := DistinctOptimalPlans(ev.Space(), ref)
	total := ev.Space().NumPoints()
	for k, area := range truth {
		if float64(area)/float64(total) < 0.2 {
			continue
		}
		// Fraction of this plan's optimality region that is ε-covered.
		covered, pts := 0, 0
		ev.Space().FullRegion().ForEach(func(g paramspace.GridPoint) bool {
			pnt := ev.Space().At(g)
			p, optCost := ref.Best(pnt)
			if p.Key() != k {
				return true
			}
			pts++
			for _, rp := range res.Plans {
				if ev.PlanCost(rp.Plan, pnt) <= (1+cfg.Epsilon)*optCost+1e-12 {
					covered++
					break
				}
			}
			return true
		})
		if frac := float64(covered) / float64(pts); frac < 0.8 {
			t.Fatalf("large plan %s only %.0f%% ε-covered", k, 100*frac)
		}
	}
}

// Statistical check of Theorem 1 across random queries: the ε-uncovered
// area should exceed δ·|S| in at most ~Confidence of trials (plus sampling
// slack).
func TestERPTheorem1UncoveredBoundStatistical(t *testing.T) {
	trials := 40
	violations := 0
	cfg := Config{Epsilon: 0.15, Delta: 0.15, Confidence: 0.25}
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(i) * 31))
		q := query.NewRandomQuery("R", 5, 2, rng)
		dims := []paramspace.Dim{
			paramspace.SelDim(0, q.Ops[0].Sel, 3),
			paramspace.SelDim(2, q.Ops[2].Sel, 3),
		}
		s := paramspace.New(dims, 12)
		ev := cost.NewEvaluator(q, s)
		ref := optimizer.NewRank(ev)
		res := ERP(optimizer.NewCounter(optimizer.NewRank(ev)), ev, cfg)
		uncovered := 1 - Coverage(res, ev, ref, cfg.Epsilon)
		if uncovered > cfg.Delta {
			violations++
		}
	}
	// Allow double the nominal failure probability for sampling noise.
	if maxViol := int(2 * cfg.Confidence * float64(trials)); violations > maxViol {
		t.Fatalf("Theorem 1 violated in %d/%d trials (allow %d)", violations, trials, maxViol)
	}
}

func TestPlanByKeyAndString(t *testing.T) {
	ev, mk, _ := fixture(8)
	res := WRP(mk(), ev, DefaultConfig())
	for _, rp := range res.AllPlans() {
		if res.PlanByKey(rp.Plan.Key()) != rp {
			t.Fatalf("PlanByKey(%s) mismatch", rp.Plan.Key())
		}
	}
	if res.PlanByKey("no-such") != nil {
		t.Fatal("PlanByKey should return nil for unknown keys")
	}
	if res.String() == "" {
		t.Fatal("String empty")
	}
}

func TestAssignWeightsSumsToAtMostOne(t *testing.T) {
	ev, mk, _ := fixture(8)
	res := WRP(mk(), ev, DefaultConfig())
	model := paramspace.NewOccurrenceModel(ev.Space())
	res.AssignWeights(model)
	sum := 0.0
	for _, rp := range res.Plans {
		if rp.Weight < 0 {
			t.Fatalf("negative weight %v", rp.Weight)
		}
		sum += rp.Weight
	}
	// WRP fully covers the space, so weights must sum to ≈1.
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
}

func TestMaxLoadsDominatePerPlanLoads(t *testing.T) {
	ev, mk, _ := fixture(8)
	res := WRP(mk(), ev, DefaultConfig())
	maxLoads := res.MaxLoads(ev)
	for _, rp := range res.Plans {
		for _, reg := range rp.Regions {
			loads := ev.OpLoads(rp.Plan, ev.Space().At(reg.Hi))
			for op, l := range loads {
				if l > maxLoads[op]+1e-9 {
					t.Fatalf("op %d load %v exceeds max %v", op, l, maxLoads[op])
				}
			}
		}
	}
}

func TestMidpointERPAlsoTerminates(t *testing.T) {
	ev, mk, ref := fixture(16)
	cfg := DefaultConfig()
	res := MidpointERP(mk(), ev, cfg)
	if res.NumPlans() == 0 {
		t.Fatal("midpoint variant found nothing")
	}
	if cov := Coverage(res, ev, ref, cfg.Epsilon); cov < 0.5 {
		t.Fatalf("midpoint coverage %v suspiciously low", cov)
	}
}

func TestEpsilonMonotonicity(t *testing.T) {
	// Larger ε ⇒ coarser partitions ⇒ fewer calls ("relatively small
	// increments in ε... bring down the number of plans significantly").
	ev, mk, _ := fixture(16)
	var prevCalls int
	for i, eps := range []float64{0.05, 0.2, 0.5} {
		cfg := DefaultConfig()
		cfg.Epsilon = eps
		res := WRP(mk(), ev, cfg)
		if i > 0 && res.Calls > prevCalls {
			t.Fatalf("calls grew with ε: %d → %d at ε=%v", prevCalls, res.Calls, eps)
		}
		prevCalls = res.Calls
	}
}

func TestAssignmentsCountWeightWork(t *testing.T) {
	ev, mk, _ := fixture(8)
	cfg := DefaultConfig()
	cfg.Epsilon = 0.02 // tight ε forces partitioning, hence weights
	for name, algo := range map[string]func(*optimizer.Counter, *cost.Evaluator, Config) *Result{
		"ERP": ERP, "WRP": WRP,
	} {
		// The full space is not ε-robust, so its first split weighs
		// every point once.
		if res := algo(mk(), ev, cfg); res.Assignments < ev.Space().NumPoints() {
			t.Fatalf("%s assignments = %d, want ≥ %d", name, res.Assignments, ev.Space().NumPoints())
		}
	}
	// Midpoint splitting reads no weights and the baselines have none.
	for name, res := range map[string]*Result{
		"Midpoint": MidpointERP(mk(), ev, cfg),
		"ES":       ES(mk(), ev.Space(), cfg),
		"RS":       RS(mk(), ev.Space(), cfg),
	} {
		if res.Assignments != 0 {
			t.Fatalf("%s assignments = %d, want 0", name, res.Assignments)
		}
	}
}

func TestRobustPlanArea(t *testing.T) {
	rp := &RobustPlan{Regions: []paramspace.Region{
		{Lo: paramspace.GridPoint{0, 0}, Hi: paramspace.GridPoint{1, 1}},
		{Lo: paramspace.GridPoint{5, 5}, Hi: paramspace.GridPoint{5, 5}},
	}}
	if rp.Area() != 5 {
		t.Fatalf("Area = %d, want 5", rp.Area())
	}
}

func TestHigherUncertaintyMoreCalls(t *testing.T) {
	// Figure 10's driver: higher U ⇒ larger space ⇒ more calls.
	q := query.NewNWayJoin("Q1", 5, 2)
	calls := make([]int, 0, 3)
	for _, u := range []int{1, 3, 5} {
		dims := []paramspace.Dim{
			paramspace.SelDim(0, q.Ops[0].Sel, u),
			paramspace.SelDim(3, q.Ops[3].Sel, u),
		}
		s := paramspace.New(dims, 2+2*u)
		ev := cost.NewEvaluator(q, s)
		res := ERP(optimizer.NewCounter(optimizer.NewRank(ev)), ev, DefaultConfig())
		calls = append(calls, res.Calls)
	}
	if !(calls[0] <= calls[1] && calls[1] <= calls[2]) {
		t.Fatalf("calls not increasing with U: %v", calls)
	}
}
