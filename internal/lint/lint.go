// Package lint is the repository's in-repo static-analysis engine: a
// stdlib-only driver (go/parser + go/types + go/importer, the same
// no-new-dependency stance as internal/apisurface) that loads every package
// in the module and runs project-invariant analyzers over them. The
// analyzers pin contracts that the type system cannot: the virtual-clock
// discipline (PR 5), the typed-sentinel error contract (PR 3/PR 7), mutex
// guard annotations, and a cycle-free lock order.
//
// A finding that is intentional is annotated in place with
//
//	//rldlint:allow <analyzer>[,<analyzer>...] -- reason
//
// A trailing directive (code before it on the same line) suppresses
// matching diagnostics on that line only; a directive on its own line
// suppresses them inside the next statement (or declaration, spec, or
// composite-literal element) only — it never leaks further. The reason
// after " -- " is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Analyzer is one invariant checker. Run inspects a single type-checked
// package and reports findings through the pass; RunModule, when set, runs
// once per driver invocation with every loaded package's pass, for
// analyzers whose invariant spans packages (lockorder's module-wide
// acquisition graph). An analyzer may set either or both.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-line description of the pinned invariant.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
	// RunModule executes the analyzer once over all loaded packages.
	RunModule func([]*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// RelPath is the module-relative package directory ("" for the module
	// root, "internal/engine", ...). Analyzers use it to scope themselves;
	// the golden-test harness overrides it so corpora exercise scoped
	// analyzers from testdata directories.
	RelPath string

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to the packages and returns the surviving
// diagnostics: findings suppressed by a scoped //rldlint:allow directive
// are dropped, and malformed directives are reported under the reserved
// analyzer name "rldlint". Diagnostics are sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	allDirs := make([]directiveSet, 0, len(pkgs))
	modulePasses := make(map[*Analyzer][]*Pass)
	for _, pkg := range pkgs {
		dirs, dirDiags := collectDirectives(pkg)
		allDirs = append(allDirs, dirs)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				RelPath:  pkg.RelPath,
				analyzer: a,
				diags:    &raw,
			}
			if a.Run != nil {
				a.Run(pass)
			}
			if a.RunModule != nil {
				modulePasses[a] = append(modulePasses[a], pass)
			}
		}
		for _, d := range raw {
			if !dirs.suppresses(d) {
				out = append(out, d)
			}
		}
		out = append(out, dirDiags...)
	}
	// Module-level passes run once over everything loaded; their
	// diagnostics carry positions inside some package, so each is checked
	// against every package's directives (only the owning package's can
	// match, by filename).
	for _, a := range analyzers {
		passes := modulePasses[a]
		if len(passes) == 0 {
			continue
		}
		var raw []Diagnostic
		for _, p := range passes {
			p.diags = &raw
		}
		a.RunModule(passes)
		for _, d := range raw {
			suppressed := false
			for _, dirs := range allDirs {
				if dirs.suppresses(d) {
					suppressed = true
					break
				}
			}
			if !suppressed {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
