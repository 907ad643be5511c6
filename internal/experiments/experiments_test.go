package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

func TestTableBasics(t *testing.T) {
	tb := &Table{ID: "T", Title: "test", XLabel: "x", Series: []string{"a", "b"}, Unit: "u"}
	tb.Add("p1", map[string]float64{"a": 1, "b": 2})
	tb.Add("p2", map[string]float64{"a": 3, "b": 4})
	if tb.Get("p1", "b") != 2 || tb.Get("p2", "a") != 3 {
		t.Fatal("Get wrong")
	}
	if tb.Get("missing", "a") != 0 {
		t.Fatal("missing row should be 0")
	}
	col := tb.Col("a")
	if len(col) != 2 || col[0] != 1 || col[1] != 3 {
		t.Fatalf("Col = %v", col)
	}
	out := tb.Format()
	for _, want := range []string{"T — test", "[u]", "a", "b", "p1", "p2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	if FormatAll([]*Table{tb, tb}) == "" {
		t.Fatal("FormatAll empty")
	}
}

func TestAllRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	prev := ""
	for _, e := range All() {
		if e.Run == nil {
			t.Fatalf("runner %s is nil", e.ID)
		}
		// rldbench runs the registry in this order.
		if e.ID <= prev {
			t.Fatalf("registry IDs not strictly ascending: %q after %q", e.ID, prev)
		}
		prev = e.ID
		ids[e.ID] = true
	}
	for _, want := range []string{
		"table2", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15a", "fig15b", "fig16a", "fig16b", "overhead",
		"ablation-erp", "ablation-bound", "ablation-batch",
	} {
		if !ids[want] {
			t.Fatalf("registry missing %s", want)
		}
	}
}

func TestTable2Defaults(t *testing.T) {
	tabs := quickRun(t, "table2")
	if len(tabs) != 2 {
		t.Fatalf("Table2 returned %d tables", len(tabs))
	}
	params := tabs[0]
	if params.Get("mean inter-arrival ms (µ)", "value") != 500 {
		t.Fatal("µ wrong")
	}
	if params.Get("ruster size", "value") != 100 {
		t.Fatal("ruster wrong")
	}
	dist := tabs[1]
	mean := dist.Get("mean", "Uniform(0,100)")
	if mean < 48 || mean > 52 {
		t.Fatalf("uniform mean = %v", mean)
	}
	pmean := dist.Get("mean", "Poisson(1)")
	if pmean < 0.9 || pmean > 1.1 {
		t.Fatalf("poisson mean = %v", pmean)
	}
}

func TestFig10Shape(t *testing.T) {
	tabs := quickRun(t, "fig10")
	for _, tb := range tabs {
		for _, row := range tb.Rows {
			if row.V["ERP"] > row.V["ES"] {
				t.Fatalf("%s %s: ERP calls %v exceed ES %v", tb.ID, row.X, row.V["ERP"], row.V["ES"])
			}
			if row.V["ES"] <= 0 || row.V["RS"] <= 0 || row.V["ERP"] <= 0 {
				t.Fatalf("%s %s: non-positive calls", tb.ID, row.X)
			}
		}
		// ES grows with U.
		es := tb.Col("ES")
		if es[len(es)-1] <= es[0] {
			t.Fatalf("%s: ES calls should grow with U: %v", tb.ID, es)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	tabs := quickRun(t, "fig11")
	for _, tb := range tabs {
		for _, row := range tb.Rows {
			for _, s := range tb.Series {
				v := row.V[s]
				if v < 0 || v > 1 {
					t.Fatalf("%s: coverage %v outside [0,1]", tb.ID, v)
				}
			}
			// ERP dominates RS at equal budgets.
			if row.V["ERP"] < row.V["RS"]-1e-9 {
				t.Fatalf("%s %s: ERP coverage %v below RS %v", tb.ID, row.X, row.V["ERP"], row.V["RS"])
			}
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tabs := quickRun(t, "fig12")
	for _, tb := range tabs {
		es := tb.Col("ES")
		erp := tb.Col("ERP")
		// ES is exponential in dims (3^d): ratio between consecutive rows
		// is 3; ERP must grow strictly slower.
		if es[1] != 3*es[0] {
			t.Fatalf("%s: ES growth %v, want ×3", tb.ID, es)
		}
		if erp[1]/erp[0] >= 3 {
			t.Fatalf("%s: ERP grows as fast as ES: %v", tb.ID, erp)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tabs := quickRun(t, "fig13")
	for _, tb := range tabs {
		for _, row := range tb.Rows {
			if row.V["GreedyPhy"] < 0 || row.V["OptPrune"] < 0 || row.V["ES"] < 0 {
				t.Fatalf("%s: negative time", tb.ID)
			}
			// Greedy must not be slower than exhaustive search.
			if row.V["GreedyPhy"] > row.V["ES"]+0.5 {
				t.Fatalf("%s %s: greedy %vms slower than ES %vms", tb.ID, row.X, row.V["GreedyPhy"], row.V["ES"])
			}
		}
	}
}

func TestFig14Shape(t *testing.T) {
	tabs := quickRun(t, "fig14")
	for _, tb := range tabs {
		for _, row := range tb.Rows {
			op, es := row.V["OptPrune"], row.V["ES"]
			// OptPrune matches the optimum (the paper's headline claim).
			if op < es-1e-9 {
				t.Fatalf("%s %s: OptPrune coverage %v below ES %v", tb.ID, row.X, op, es)
			}
			if g := row.V["GreedyPhy"]; g > op+1e-9 {
				t.Fatalf("%s %s: greedy coverage %v exceeds optimal %v", tb.ID, row.X, g, op)
			}
		}
	}
}

func TestFig15aShape(t *testing.T) {
	tabs := quickRun(t, "fig15a")
	tb := tabs[0]
	if len(tb.Rows) < 2 {
		t.Fatal("too few rows")
	}
	for _, row := range tb.Rows {
		for _, s := range tb.Series {
			if row.V[s] <= 0 {
				t.Fatalf("%s: non-positive latency for %s", row.X, s)
			}
		}
		// RLD is the most robust system at in-band and stress ratios.
		if row.V["RLD"] > row.V["ROD"]*1.15 {
			t.Fatalf("%s: RLD latency %v should not exceed ROD %v by >15%%", row.X, row.V["RLD"], row.V["ROD"])
		}
	}
	// Latency grows with the fluctuation ratio.
	rld := tb.Col("RLD")
	if rld[len(rld)-1] <= rld[0] {
		t.Fatalf("latency should grow with ratio: %v", rld)
	}
}

func TestFig15bShape(t *testing.T) {
	tabs := quickRun(t, "fig15b")
	tb := tabs[0]
	for _, s := range tb.Series {
		col := tb.Col(s)
		for i := 1; i < len(col); i++ {
			if col[i] < col[i-1] {
				t.Fatalf("%s cumulative output decreased: %v", s, col)
			}
		}
		if col[len(col)-1] <= 0 {
			t.Fatalf("%s produced nothing", s)
		}
	}
}

func TestFig16aShape(t *testing.T) {
	tabs := quickRun(t, "fig16a")
	tb := tabs[0]
	for _, s := range tb.Series {
		col := tb.Col(s)
		// More nodes must not hurt.
		if col[len(col)-1] > col[0]*1.1 {
			t.Fatalf("%s: latency grew with nodes: %v", s, col)
		}
	}
}

func TestFig16bShape(t *testing.T) {
	tabs := quickRun(t, "fig16b")
	tb := tabs[0]
	for _, row := range tb.Rows {
		if row.V["RLD"] > row.V["ROD"]+1e-9 && row.V["RLD"] > row.V["ROD"]*1.1 {
			t.Fatalf("%s: RLD %v should track or beat ROD %v", row.X, row.V["RLD"], row.V["ROD"])
		}
	}
}

func TestOverheadShape(t *testing.T) {
	tabs := quickRun(t, "overhead")
	tb := tabs[0]
	if tb.Get("overhead ratio", "ROD") != 0 {
		t.Fatal("ROD must have zero overhead (§6.5)")
	}
	rld := tb.Get("overhead ratio", "RLD")
	if rld <= 0 || rld > 0.15 {
		t.Fatalf("RLD overhead ratio %v outside (0, 0.15]", rld)
	}
	if tb.Get("migrations", "RLD") != 0 || tb.Get("migrations", "ROD") != 0 {
		t.Fatal("only DYN migrates")
	}
	if tb.Get("plan switches", "RLD") <= 0 {
		t.Fatal("RLD should switch plans under fluctuation")
	}
}

func TestAblationERPShape(t *testing.T) {
	tabs := quickRun(t, "ablation-erp")
	tb := tabs[0]
	erpCalls := tb.Get("optimizer calls", "ERP")
	wrpCalls := tb.Get("optimizer calls", "WRP")
	if erpCalls > wrpCalls {
		t.Fatalf("ERP calls %v exceed WRP %v", erpCalls, wrpCalls)
	}
	if tb.Get("coverage", "WRP") < tb.Get("coverage", "ERP")-1e-9 {
		t.Fatal("WRP (no early stop) must not cover less than ERP")
	}
}

func TestAblationBoundShape(t *testing.T) {
	tabs := quickRun(t, "ablation-bound")
	tb := tabs[0]
	for _, row := range tb.Rows {
		if row.V["bounded"] > row.V["unbounded"] {
			t.Fatalf("%s: bound increased expansion", row.X)
		}
	}
}

func TestAblationBatchShape(t *testing.T) {
	tabs := quickRun(t, "ablation-batch")
	tb := tabs[0]
	rows := tb.Rows
	// Overhead ratio falls as batches grow (classification amortizes).
	if rows[len(rows)-1].V["overhead ratio"] >= rows[0].V["overhead ratio"] {
		t.Fatalf("overhead should amortize with batch size: %v vs %v",
			rows[0].V["overhead ratio"], rows[len(rows)-1].V["overhead ratio"])
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// quickTables caches each experiment's quick tables for the test binary:
// the shape tests and the goldens read the same run.
var quickTables = map[string][]*Table{}

// quickRun returns experiment id's quick tables, running it on first use.
func quickRun(t *testing.T, id string) []*Table {
	t.Helper()
	if tabs, ok := quickTables[id]; ok {
		return tabs
	}
	for _, e := range All() {
		if e.ID == id {
			quickTables[id] = e.Run(true)
			return quickTables[id]
		}
	}
	t.Fatalf("unknown experiment %q", id)
	return nil
}

// TestQuickGolden pins every deterministic experiment's quick tables byte
// for byte: the optimizers, the sampler and the simulator are all seeded,
// so a refactor that is not meant to change a figure must leave it exactly
// as it is. Only fig13 is left out, because its rows are wall-clock compile
// times. After a change that is meant to move a figure, rewrite the goldens
// with
//
//	go test ./internal/experiments -run QuickGolden -update
func TestQuickGolden(t *testing.T) {
	for _, e := range All() {
		if e.ID == "fig13" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			golden := "testdata/" + e.ID + "_quick.golden"
			got := FormatAll(quickRun(t, e.ID))
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("quick %s drifted from %s:\n--- got\n%s--- want\n%s", e.ID, golden, got, want)
			}
		})
	}
}
