// Command rldlint runs the repository's project-invariant analyzers (see
// internal/lint) over the module and exits nonzero on any finding:
//
//	go run ./cmd/rldlint ./...
//	go run ./cmd/rldlint -json ./...
//
// Diagnostics print as file:line:col: [analyzer] message, or with -json as
// one JSON object per line (analyzer, pos, message) for tooling. Exit
// codes: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rld/internal/lint"
	"rld/internal/lint/analyzers"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic object per line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rldlint [-json] [./... | package dirs]\n\nanalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := load(loader, root, flag.Args())
	if err != nil {
		fatal(err)
	}

	diags := lint.Run(pkgs, analyzers.All())
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		if *jsonOut {
			out, _ := json.Marshal(struct {
				Analyzer string `json:"analyzer"`
				Pos      string `json:"pos"`
				Message  string `json:"message"`
			}{d.Analyzer, fmt.Sprintf("%s:%d:%d", file, d.Pos.Line, d.Pos.Column), d.Message})
			fmt.Println(string(out))
		} else {
			fmt.Printf("%s:%d:%d: [%s] %s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// load resolves the package arguments: no args or any "..." pattern loads
// the whole module; plain directory arguments load those packages.
func load(loader *lint.Loader, root string, args []string) ([]*lint.Package, error) {
	if len(args) == 0 {
		return loader.LoadAll()
	}
	var rels []string
	for _, arg := range args {
		if strings.Contains(arg, "...") {
			return loader.LoadAll()
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("rldlint: %s is outside module %s", arg, root)
		}
		if rel == "." {
			rel = ""
		}
		rels = append(rels, filepath.ToSlash(rel))
	}
	sort.Strings(rels)
	var pkgs []*lint.Package
	for _, rel := range rels {
		p, err := loader.Load(rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rldlint:", err)
	os.Exit(2)
}
