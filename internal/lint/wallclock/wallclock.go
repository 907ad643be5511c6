// Package wallclock pins PR 5's virtual-clock discipline: engine, sim,
// and stream control paths must never read or wait on the wall clock —
// time comes from batch timestamps and the session's virtual clock, so a
// run replays identically at any host speed. In netrt, wall time is legal
// only where the outside world forces it (heartbeat pacing and dial/RPC
// deadlines); everything else needs an explicit //rldlint:allow.
package wallclock

import (
	"go/ast"
	"go/types"

	"rld/internal/lint"
)

// forbidden is the set of time-package functions that read or wait on the
// wall clock.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

// strict packages forbid wall time outright. internal/wal is strict even
// though fsync latency is inherently wall time: its two Stats timing
// reads carry explicit //rldlint:allow annotations, and everything else
// in a durability log (replay, truncation, rotation) must be
// deterministic, so new wall-clock reads there are almost certainly bugs.
var strict = map[string]bool{
	"internal/engine": true,
	"internal/sim":    true,
	"internal/stream": true,
	"internal/wal":    true,
}

// netrtAllowed names the netrt functions whose wall-clock use is the
// protocol's job: heartbeat pacing and connection/RPC deadlines.
var netrtAllowed = map[string]bool{
	"handshake":      true, // inbound hello deadline
	"heartbeatLoop":  true, // ping pacing
	"send":           true, // per-call deadline
	"callStageChunk": true, // per-chunk deadline
	"awaitWorker":    true, // respawn handshake deadline
}

var Analyzer = &lint.Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock reads/waits in virtual-time control paths (PR 5)",
	Run:  run,
}

func run(pass *lint.Pass) {
	netrt := pass.RelPath == "internal/netrt"
	if !strict[pass.RelPath] && !netrt {
		return
	}
	for _, f := range pass.Files {
		var fn []string // enclosing function-name stack
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn = append(fn, n.Name.Name)
				ast.Inspect(n, func(m ast.Node) bool {
					if m == ast.Node(n) {
						return true
					}
					return walk(m)
				})
				fn = fn[:len(fn)-1]
				return false
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !forbidden[sel.Sel.Name] {
					return true
				}
				if !isTimePkg(pass, sel.X) {
					return true
				}
				if _, ok := pass.Info.Uses[sel.Sel].(*types.Func); !ok {
					return true // conversion like time.Duration(x)
				}
				if netrt && allowedHere(fn) {
					return true
				}
				where := pass.RelPath
				hint := "use the session's virtual clock"
				if netrt {
					hint = "keep wall time to heartbeat/deadline paths"
				}
				pass.Reportf(n.Pos(), "wall-clock time.%s in %s (virtual-clock discipline, PR 5); %s or annotate //rldlint:allow wallclock -- reason",
					sel.Sel.Name, where, hint)
			}
			return true
		}
		ast.Inspect(f, walk)
	}
}

// isTimePkg reports whether x names the standard time package.
func isTimePkg(pass *lint.Pass, x ast.Expr) bool {
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "time"
}

// allowedHere reports whether any enclosing function is allowlisted.
func allowedHere(fn []string) bool {
	for _, name := range fn {
		if netrtAllowed[name] {
			return true
		}
	}
	return false
}
