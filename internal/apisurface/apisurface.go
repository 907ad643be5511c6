// Package apisurface renders a Go package's exported declaration surface
// as stable, sorted text — the comparison key of the repository's
// API-compatibility gate. The golden file API_SURFACE.txt pins the public
// rld package; TestAPISurface fails when the surface drifts, so breaking
// changes must be explicit (regenerate with `go test . -run APISurface
// -update`) instead of accidental.
package apisurface

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Surface parses the non-test Go files of the package in dir and returns
// its exported declarations — types, consts, vars, funcs, and exported
// methods on exported receivers — rendered one per block, sorted, with
// docs and function bodies stripped.
func Surface(dir string) (string, error) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	var entries []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return "", err
		}
		for _, decl := range f.Decls {
			entries = append(entries, declEntries(fset, decl)...)
		}
	}
	sort.Strings(entries)
	return strings.Join(entries, "\n\n") + "\n", nil
}

// declEntries renders one top-level declaration's exported parts.
func declEntries(fset *token.FileSet, decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedRecv(d) {
			return nil
		}
		d.Doc = nil
		d.Body = nil
		return []string{render(fset, d)}
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			return nil
		}
		var out []string
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if !sp.Name.IsExported() {
					continue
				}
				sp.Doc, sp.Comment = nil, nil
				one := &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{sp}}
				out = append(out, render(fset, one))
			case *ast.ValueSpec:
				if !anyExported(sp.Names) {
					continue
				}
				sp.Doc, sp.Comment = nil, nil
				one := &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{sp}}
				out = append(out, render(fset, one))
			}
		}
		return out
	}
	return nil
}

// exportedRecv reports whether a func decl is a plain function or a method
// on an exported receiver type.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func anyExported(names []*ast.Ident) bool {
	for _, n := range names {
		if n.IsExported() {
			return true
		}
	}
	return false
}

func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<render error: %v>", err)
	}
	return buf.String()
}
