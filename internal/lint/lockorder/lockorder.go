// Package lockorder pins a global lock hierarchy: the module's lock
// acquisitions must form a cycle-free order. Every package contributes
// edges to one module-wide graph — an edge A → B whenever lock class B
// (identified by its struct-field path, "engine.nodeState.mu") is acquired
// while A is held, either directly or one call-summary hop away — and any
// cycle in the merged graph is reported at each of its in-cycle
// acquisition sites. A re-acquisition of the very same lock occurrence is
// a self-cycle (immediate deadlock for a plain Mutex). The invariant this
// repo pins today: the checkpoint/recovery path (the router's Engine.walMu
// before the window-shard locks and before the leader→worker RPC path) and
// that RPC path (callMu before workerProc.mu) must never invert.
package lockorder

import (
	"fmt"
	"sort"
	"strings"

	"rld/internal/lint"
	"rld/internal/lint/lockflow"
)

var Analyzer = &lint.Analyzer{
	Name:      "lockorder",
	Doc:       "the module-wide lock-acquisition graph must stay cycle-free",
	RunModule: runModule,
}

// edge is one merged acquisition-order fact with the pass that owns its
// witness position (diagnostics must report through the owning package).
type edge struct {
	lockflow.Edge
	pass *lint.Pass
}

func runModule(passes []*lint.Pass) {
	graph := make(map[string][]edge)
	var keys []string
	addKey := func(k string) {
		if _, seen := graph[k]; !seen {
			graph[k] = nil
			keys = append(keys, k)
		}
	}
	for _, pass := range passes {
		ana := lockflow.Analyze(pass)
		for _, e := range ana.Edges {
			addKey(e.From)
			addKey(e.To)
			graph[e.From] = append(graph[e.From], edge{Edge: e, pass: pass})
		}
	}
	sort.Strings(keys)

	// Report each elementary cycle once: DFS from each key in sorted
	// order, skipping vertices already settled as members of a reported
	// cycle reached from an earlier root.
	reported := make(map[string]bool)
	for _, root := range keys {
		if reported[root] {
			continue
		}
		if cyc := findCycle(graph, root); cyc != nil {
			report(cyc)
			for _, e := range cyc {
				reported[e.From] = true
				reported[e.To] = true
			}
		}
	}
}

// findCycle runs an iterative DFS from root and returns the first cycle
// found as its edge path, or nil.
func findCycle(graph map[string][]edge, root string) []edge {
	const (
		white = iota
		grey
		black
	)
	color := make(map[string]int)
	var path []edge
	var dfs func(v string) []edge
	dfs = func(v string) []edge {
		color[v] = grey
		for _, e := range graph[v] {
			switch color[e.To] {
			case grey:
				// Found a back edge: slice the path from the first
				// occurrence of e.To.
				cyc := append(append([]edge(nil), pathFrom(path, e.To)...), e)
				return cyc
			case white:
				path = append(path, e)
				if cyc := dfs(e.To); cyc != nil {
					return cyc
				}
				path = path[:len(path)-1]
			}
		}
		color[v] = black
		return nil
	}
	return dfs(root)
}

// pathFrom returns the suffix of path starting at the edge leaving v.
func pathFrom(path []edge, v string) []edge {
	for i, e := range path {
		if e.From == v {
			return path[i:]
		}
	}
	return nil
}

// report emits one diagnostic per edge of the cycle, each at its witness
// acquisition, naming the full cycle so any single hit reads completely.
func report(cyc []edge) {
	names := make([]string, 0, len(cyc)+1)
	for _, e := range cyc {
		names = append(names, e.From)
	}
	names = append(names, cyc[len(cyc)-1].To)
	desc := strings.Join(names, " -> ")
	if len(cyc) == 1 && cyc[0].From == cyc[0].To {
		e := cyc[0]
		e.pass.Reportf(e.Pos, "lock %s acquired while already held (self-deadlock)", e.From)
		return
	}
	for _, e := range cyc {
		e.pass.Reportf(e.Pos, "%s", fmt.Sprintf("lock-order cycle: %s (this site acquires %s while holding %s)",
			desc, e.To, e.From))
	}
}
