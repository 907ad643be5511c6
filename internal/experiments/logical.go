package experiments

import (
	"fmt"

	"rld/internal/cost"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
	"rld/internal/robust"
)

// q1 is the paper's Q1 (5-way join); q2 is Q2 (10-way join); §6.1.
func q1() *query.Query { return query.NewNWayJoin("Q1", 5, 2) }
func q2() *query.Query { return query.NewNWayJoin("Q2", 10, 2) }

// spaceFor builds a d-dimensional parameter space over q: selectivity
// dimensions on the first d (spread-out) operators at uncertainty u, with
// the given per-dimension resolution.
func spaceFor(q *query.Query, d, u, steps int) *paramspace.Space {
	dims := make([]paramspace.Dim, 0, d)
	n := len(q.Ops)
	for i := 0; i < d; i++ {
		op := (i * n) / d // spread dims across the operator list
		dims = append(dims, paramspace.SelDim(op, q.Ops[op].Sel, u))
	}
	return paramspace.New(dims, steps)
}

// logicalSetup wires an evaluator and counting optimizer for one run.
func logicalSetup(q *query.Query, space *paramspace.Space, budget int) (*cost.Evaluator, *optimizer.Counter) {
	ev := cost.NewEvaluator(q, space)
	var c *optimizer.Counter
	if budget > 0 {
		c = optimizer.NewBudgeted(optimizer.NewRank(ev), budget)
	} else {
		c = optimizer.NewCounter(optimizer.NewRank(ev))
	}
	return ev, c
}

// logicalRow is one row of Figures 10–12: ES, RS (seeded with rsSeed) and
// ERP each solve q over a fresh space from mkSpace with their own counting
// optimizer (budgeted when budget > 0), and metric reads each result.
func logicalRow(q *query.Query, mkSpace func() *paramspace.Space, budget int, cfg robust.Config, rsSeed int64, metric func(*robust.Result) float64) map[string]float64 {
	cfgRS := cfg
	cfgRS.Seed = rsSeed
	run := func(algo func(*cost.Evaluator, *optimizer.Counter) *robust.Result) float64 {
		return metric(algo(logicalSetup(q, mkSpace(), budget)))
	}
	return map[string]float64{
		"ES": run(func(ev *cost.Evaluator, c *optimizer.Counter) *robust.Result {
			return robust.ES(c, ev.Space(), cfg)
		}),
		"RS": run(func(ev *cost.Evaluator, c *optimizer.Counter) *robust.Result {
			return robust.RS(c, ev.Space(), cfgRS)
		}),
		"ERP": run(func(ev *cost.Evaluator, c *optimizer.Counter) *robust.Result {
			return robust.ERP(c, ev, cfg)
		}),
	}
}

// calls is the optimizer-call metric of Figures 10 and 12.
func calls(r *robust.Result) float64 { return float64(r.Calls) }

// uSteps is the per-dimension grid resolution at uncertainty level u for the
// Figure 10 sweep: wider spaces are discretized finer (Algorithm 1's fixed
// Δ=0.1 value granularity implies resolution grows with U).
func uSteps(u int) int { return 2 + 2*u }

// Fig10 — number of optimizer calls vs uncertainty level U ∈ 1..5 for
// ε ∈ {0.1, 0.2, 0.3} (subfigures a–c), ES vs RS vs ERP on Q1 in 2-D.
// Expected shape: ERP < RS < ES, all increasing with U and with 1/ε.
func Fig10(quick bool) []*Table {
	epsList := []float64{0.1, 0.2, 0.3}
	uList := []int{1, 2, 3, 4, 5}
	if quick {
		epsList = []float64{0.2}
		uList = []int{1, 3}
	}
	var tables []*Table
	for fi, eps := range epsList {
		t := &Table{
			ID:     fmt.Sprintf("Fig10%c", 'a'+fi),
			Title:  fmt.Sprintf("optimizer calls vs uncertainty level (ε=%.1f, Q1, 2-D)", eps),
			XLabel: "U",
			Series: []string{"ES", "RS", "ERP"},
			Unit:   "calls",
		}
		for _, u := range uList {
			q := q1()
			cfg := robust.DefaultConfig()
			cfg.Epsilon = eps
			mkSpace := func() *paramspace.Space { return spaceFor(q, 2, u, uSteps(u)) }
			t.Add(fmt.Sprintf("U=%d", u), logicalRow(q, mkSpace, 0, cfg, int64(u), calls))
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig11 — parameter space coverage vs optimizer-call budget
// {10, 50, 100, 200, 300} at U=2 for ε ∈ {0.1, 0.2, 0.3} (subfigures a–c).
// Coverage is the certified fraction of the 16×16 grid: ES certifies one
// cell per call (linear rise to 1.0 at 256 calls), RS certifies only the
// unit cells it samples and plateaus when its patience runs out, and ERP
// certifies whole sub-regions per corner pair — the paper's shape: ERP near
// ES's ceiling at a fraction of the calls, RS stuck below.
func Fig11(quick bool) []*Table {
	epsList := []float64{0.1, 0.2, 0.3}
	budgets := []int{10, 50, 100, 200, 300}
	if quick {
		epsList = []float64{0.2}
		budgets = []int{10, 100}
	}
	const u = 2
	var tables []*Table
	for fi, eps := range epsList {
		t := &Table{
			ID:     fmt.Sprintf("Fig11%c", 'a'+fi),
			Title:  fmt.Sprintf("space coverage vs optimizer calls (ε=%.1f, U=%d, Q1)", eps, u),
			XLabel: "calls",
			Series: []string{"ES", "RS", "ERP"},
			Unit:   "coverage",
		}
		for _, budget := range budgets {
			q := q1()
			cfg := robust.DefaultConfig()
			cfg.Epsilon = eps
			cfg.MaxCalls = budget
			mkSpace := func() *paramspace.Space { return spaceFor(q, 2, u, paramspace.DefaultSteps) }
			t.Add(fmt.Sprintf("%d", budget),
				logicalRow(q, mkSpace, budget, cfg, int64(budget), robust.CertifiedCoverage))
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig12 — optimizer calls vs number of dimensions {2,3,4,5} on Q2 for
// (ε, U) ∈ {(0.3,1), (0.2,2), (0.1,3)} (subfigures a–c). The grid keeps 3
// steps per dimension so exhaustive search exhibits its 3^d exponential
// growth while ERP stays near-linear.
func Fig12(quick bool) []*Table {
	configs := []struct {
		eps float64
		u   int
	}{{0.3, 1}, {0.2, 2}, {0.1, 3}}
	dimsList := []int{2, 3, 4, 5}
	if quick {
		configs = configs[1:2]
		dimsList = []int{2, 3}
	}
	const steps = 3
	var tables []*Table
	for fi, cc := range configs {
		t := &Table{
			ID:     fmt.Sprintf("Fig12%c", 'a'+fi),
			Title:  fmt.Sprintf("optimizer calls vs dimensions (ε=%.1f, U=%d, Q2)", cc.eps, cc.u),
			XLabel: "dims",
			Series: []string{"ES", "RS", "ERP"},
			Unit:   "calls",
		}
		for _, d := range dimsList {
			q := q2()
			cfg := robust.DefaultConfig()
			cfg.Epsilon = cc.eps
			mkSpace := func() *paramspace.Space { return spaceFor(q, d, cc.u, steps) }
			t.Add(fmt.Sprintf("%d", d), logicalRow(q, mkSpace, 0, cfg, int64(d), calls))
		}
		tables = append(tables, t)
	}
	return tables
}

// AblationERP — ERP's early termination and weight-driven splitting vs
// plain WRP and midpoint splitting (DESIGN.md §6): optimizer calls, achieved
// coverage, and per-point weight-assignment work.
func AblationERP(quick bool) []*Table {
	steps := paramspace.DefaultSteps
	if quick {
		steps = 8
	}
	t := &Table{
		ID:     "AblationERP",
		Title:  "ERP vs WRP vs midpoint splitting (ε=0.02, U=5, Q1, 2-D)",
		XLabel: "metric",
		Series: []string{"ERP", "WRP", "Midpoint"},
	}
	cfg := robust.DefaultConfig()
	cfg.Epsilon = 0.02 // tight ε forces deep partitioning
	cfg.Delta = 0.05   // patient aging so early-stop is observable
	type run struct {
		res *robust.Result
		cov float64
	}
	runs := map[string]run{}
	for _, name := range t.Series {
		q := q1()
		space := spaceFor(q, 2, 5, steps)
		ev, c := logicalSetup(q, space, 0)
		ref := optimizer.NewRank(ev)
		var res *robust.Result
		switch name {
		case "ERP":
			res = robust.ERP(c, ev, cfg)
		case "WRP":
			res = robust.WRP(c, ev, cfg)
		case "Midpoint":
			res = robust.MidpointERP(c, ev, cfg)
		}
		runs[name] = run{res: res, cov: robust.Coverage(res, ev, ref, cfg.Epsilon)}
	}
	t.Add("optimizer calls", map[string]float64{
		"ERP": float64(runs["ERP"].res.Calls), "WRP": float64(runs["WRP"].res.Calls), "Midpoint": float64(runs["Midpoint"].res.Calls)})
	t.Add("coverage", map[string]float64{
		"ERP": runs["ERP"].cov, "WRP": runs["WRP"].cov, "Midpoint": runs["Midpoint"].cov})
	t.Add("plans found", map[string]float64{
		"ERP": float64(runs["ERP"].res.NumPlans()), "WRP": float64(runs["WRP"].res.NumPlans()), "Midpoint": float64(runs["Midpoint"].res.NumPlans())})
	t.Add("weight assignments", map[string]float64{
		"ERP": float64(runs["ERP"].res.Assignments), "WRP": float64(runs["WRP"].res.Assignments), "Midpoint": float64(runs["Midpoint"].res.Assignments)})
	return []*Table{t}
}
