// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each Fig* function reproduces one figure's data as a
// Table whose rows are the paper's x-axis points and whose series are the
// compared algorithms; cmd/rldbench prints them and EXPERIMENTS.md records
// paper-vs-measured shapes. See DESIGN.md §4 for the experiment index.
package experiments

import (
	"fmt"
	"strings"
)

// Row is one x-axis point of a figure: a label plus one value per series.
type Row struct {
	// X is the x-axis label (e.g. "U=3", "4 machines", "200%").
	X string
	// V maps series name → measured value.
	V map[string]float64
}

// Table is one (sub)figure's data.
type Table struct {
	// ID names the experiment ("Fig10a", "Fig15b", ...).
	ID string
	// Title describes the measurement.
	Title string
	// XLabel names the x-axis.
	XLabel string
	// Series is the column order.
	Series []string
	// Unit annotates values ("calls", "ms", "coverage", "tuples").
	Unit string
	Rows []Row
}

// Add appends a row.
func (t *Table) Add(x string, v map[string]float64) {
	t.Rows = append(t.Rows, Row{X: x, V: v})
}

// Get returns the value at row x for a series (0 if absent).
func (t *Table) Get(x, series string) float64 {
	for _, r := range t.Rows {
		if r.X == x {
			return r.V[series]
		}
	}
	return 0
}

// Col returns a series as a slice in row order.
func (t *Table) Col(series string) []float64 {
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.V[series]
	}
	return out
}

// Format renders the table as aligned text (the rows the paper plots).
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteByte('\n')
	width := len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.X) > width {
			width = len(r.X)
		}
	}
	fmt.Fprintf(&b, "  %-*s", width+2, t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%14s", s)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s", width+2, r.X)
		for _, s := range t.Series {
			fmt.Fprintf(&b, "%14.3f", r.V[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatAll renders several tables separated by blank lines.
func FormatAll(tables []*Table) string {
	parts := make([]string, len(tables))
	for i, t := range tables {
		parts[i] = t.Format()
	}
	return strings.Join(parts, "\n")
}

// Runner reproduces one experiment's tables. Quick mode shrinks
// parameters for smoke tests.
type Runner func(quick bool) []*Table

// Experiment is one registry entry: an ID cmd/rldbench runs by name.
type Experiment struct {
	ID  string
	Run Runner
}

// All returns the registry in ascending ID order, the order rldbench runs
// it in.
func All() []Experiment {
	return []Experiment{
		{"ablation-batch", AblationBatch},
		{"ablation-bound", AblationBound},
		{"ablation-erp", AblationERP},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"fig15a", Fig15a},
		{"fig15b", Fig15b},
		{"fig16a", Fig16a},
		{"fig16b", Fig16b},
		{"overhead", Overhead},
		{"table2", Table2},
	}
}
