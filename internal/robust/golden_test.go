package robust

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"rld/internal/cost"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenSpace is one query over one parameter space of TestResultGolden.
type goldenSpace struct {
	name  string
	q     *query.Query
	dims  []paramspace.Dim
	steps int
}

// goldenSpaces returns the query × dimension grid of TestResultGolden: two
// queries, each over 2, 3 and 4 dimensions, the larger two with rate dims.
func goldenSpaces() []goldenSpace {
	var out []goldenSpace
	qs := []*query.Query{
		query.NewNWayJoin("Q6", 6, 2),
		query.NewRandomQuery("R6", 6, 2, rand.New(rand.NewSource(5))),
	}
	for _, q := range qs {
		sel := func(op int) paramspace.Dim { return paramspace.SelDim(op, q.Ops[op].Sel, 5) }
		rate := func(s string) paramspace.Dim { return paramspace.RateDim(s, q.Rates[s], 5) }
		out = append(out,
			goldenSpace{q.Name + " sel0,sel4", q, []paramspace.Dim{sel(0), sel(4)}, 8},
			goldenSpace{q.Name + " sel0,sel2,rateS4", q, []paramspace.Dim{sel(0), sel(2), rate("S4")}, 5},
			goldenSpace{q.Name + " sel1,sel3,rateS2,rateS5", q, []paramspace.Dim{sel(1), sel(3), rate("S2"), rate("S5")}, 4},
		)
	}
	return out
}

// formatResult renders everything a robust solution carries, in order.
func formatResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "calls=%d assignments=%d terminated=%v\n", res.Calls, res.Assignments, res.Terminated)
	for _, rp := range res.Plans {
		fmt.Fprintf(&b, "  plan  %s %v\n", rp.Plan.Key(), rp.Regions)
	}
	for _, rp := range res.Extras {
		fmt.Fprintf(&b, "  extra %s %v\n", rp.Plan.Key(), rp.Regions)
	}
	if len(res.Uncovered) > 0 {
		fmt.Fprintf(&b, "  uncovered %v\n", res.Uncovered)
	}
	return b.String()
}

// TestResultGolden pins the robust logical solution of ERP, WRP, ES and RS
// over a grid of queries, dimensions (selectivity and rate) and ε: the
// plans and regions of certified plans and extras in order, the optimizer
// calls, the weight assignments and the termination flag. A change to the
// compile half that is not meant to move a solution must leave this file
// byte-identical. After one that is, rewrite it with
//
//	go test ./internal/robust -run ResultGolden -update
func TestResultGolden(t *testing.T) {
	var b strings.Builder
	for _, sp := range goldenSpaces() {
		space := paramspace.New(sp.dims, sp.steps)
		ev := cost.NewEvaluator(sp.q, space)
		for _, eps := range []float64{0.05, 0.2} {
			cfg := DefaultConfig()
			cfg.Epsilon = eps
			cfg.Seed = 3
			runs := []struct {
				name string
				run  func(*optimizer.Counter) *Result
			}{
				{"ERP", func(c *optimizer.Counter) *Result { return ERP(c, ev, cfg) }},
				{"WRP", func(c *optimizer.Counter) *Result { return WRP(c, ev, cfg) }},
				{"ES", func(c *optimizer.Counter) *Result { return ES(c, space, cfg) }},
				{"RS", func(c *optimizer.Counter) *Result { return RS(c, space, cfg) }},
			}
			for _, r := range runs {
				res := r.run(optimizer.NewCounter(optimizer.NewRank(ev)))
				fmt.Fprintf(&b, "%s steps=%d eps=%.2f %s: %s", sp.name, sp.steps, eps, r.name, formatResult(res))
			}
		}
	}
	const golden = "testdata/result.golden"
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("robust solutions drifted from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
