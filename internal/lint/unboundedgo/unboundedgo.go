// Package unboundedgo pins PR 5's flat-goroutine guarantee: the engine and
// netrt replaced goroutine-per-message fallbacks with bounded worker pools
// over per-node queues, so a `go` statement in those packages must spawn a
// goroutine that can be told to stop — its body (or, one call deep, an
// in-package function it calls) must select on or receive from a
// done/quit/ctx channel. Goroutines bounded by other means (a listener
// close, a connection deadline, a child-process exit, a pool parked in
// sync.Cond.Wait) carry an explicit
// //rldlint:allow with the reason.
package unboundedgo

import (
	"go/ast"
	"go/token"
	"go/types"

	"rld/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "unboundedgo",
	Doc:  "go statements in engine/netrt must select on a done/ctx channel (PR 5)",
	Run:  run,
}

var scoped = map[string]bool{
	"internal/engine": true,
	"internal/netrt":  true,
}

func run(pass *lint.Pass) {
	if !scoped[pass.RelPath] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := calleeBody(pass, f, g.Call)
			if body == nil {
				pass.Reportf(g.Pos(), "goroutine target not resolvable in-package, so it cannot be proven to stop; queue the work to a node's worker pool or annotate //rldlint:allow unboundedgo -- reason (PR 5 flat-goroutine guarantee)")
				return true
			}
			if receivesOnChannel(pass, body) || callsReceiver(pass, f, body) {
				return true
			}
			pass.Reportf(g.Pos(), "goroutine never selects on a done/ctx channel; queue the work to a node's worker pool or annotate //rldlint:allow unboundedgo -- reason (PR 5 flat-goroutine guarantee)")
			return true
		})
	}
}

// calleeBody resolves the spawned callable to a body: a function literal,
// an in-package function or method declaration, or a local variable bound
// to a function literal.
func calleeBody(pass *lint.Pass, f *ast.File, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		obj := pass.Info.Uses[fun]
		if fd := pass.DeclOf(obj); fd != nil {
			return fd.Body
		}
		// Local closure: find `name := func() {...}` binding this object.
		return localLitBody(pass, f, obj)
	case *ast.SelectorExpr:
		if fd := pass.DeclOf(pass.Info.Uses[fun.Sel]); fd != nil {
			return fd.Body
		}
	}
	return nil
}

// localLitBody finds the function literal assigned to obj, if any.
func localLitBody(pass *lint.Pass, f *ast.File, obj types.Object) *ast.BlockStmt {
	if obj == nil {
		return nil
	}
	var body *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if pass.Info.Defs[id] != obj && pass.Info.Uses[id] != obj {
					continue
				}
				if lit, ok := n.Rhs[i].(*ast.FuncLit); ok {
					body = lit.Body
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.Info.Defs[name] == obj && i < len(n.Values) {
					if lit, ok := n.Values[i].(*ast.FuncLit); ok {
						body = lit.Body
					}
				}
			}
		}
		return body == nil
	})
	return body
}

// receivesOnChannel reports whether body contains a select statement, a
// channel receive, or a range over a channel.
func receivesOnChannel(pass *lint.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// callsReceiver reports whether body calls an in-package function whose
// own body receives on a channel — one level deep, which covers loops
// that park in a helper.
func callsReceiver(pass *lint.Pass, f *ast.File, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			obj = pass.Info.Uses[fun]
		case *ast.SelectorExpr:
			obj = pass.Info.Uses[fun.Sel]
		}
		var callee *ast.BlockStmt
		if fd := pass.DeclOf(obj); fd != nil {
			callee = fd.Body
		} else if obj != nil {
			callee = localLitBody(pass, f, obj)
		}
		if callee != nil && receivesOnChannel(pass, callee) {
			found = true
		}
		return !found
	})
	return found
}
