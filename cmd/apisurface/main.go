// Command apisurface renders the public rld package's exported API surface
// and maintains the committed golden file TestAPISurface compares against
// (the in-repo stand-in for golang.org/x/exp/cmd/apidiff, which would pull
// a dependency this module deliberately avoids).
//
//	go run ./cmd/apisurface            # print the current surface
//	go run ./cmd/apisurface -check     # diff against API_SURFACE.txt
//	go run ./cmd/apisurface -write     # regenerate after an intended change
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rld/internal/apisurface"
)

func main() {
	check := flag.Bool("check", false, "fail if the surface differs from the golden file")
	write := flag.Bool("write", false, "rewrite the golden file")
	dir := flag.String("dir", ".", "package directory to render")
	golden := flag.String("golden", "API_SURFACE.txt", "golden file path")
	flag.Parse()

	got, err := apisurface.Surface(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	switch {
	case *write:
		if err := os.WriteFile(*golden, []byte(got), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *golden, len(got))
	case *check:
		want, err := os.ReadFile(*golden)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if string(want) != got {
			fmt.Fprintf(os.Stderr, "public API surface differs from %s.\n", *golden)
			fmt.Fprintf(os.Stderr, "If the change is intentional, regenerate with:\n\n")
			fmt.Fprintf(os.Stderr, "\tgo run ./cmd/apisurface -write\n\n")
			fmt.Fprintln(os.Stderr, diffHint(string(want), got))
			os.Exit(1)
		}
		fmt.Println("API surface matches", *golden)
	default:
		fmt.Print(got)
	}
}

// diffHint produces a minimal line-level summary of what changed.
func diffHint(want, got string) string {
	wantSet := map[string]bool{}
	for _, l := range splitBlocks(want) {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range splitBlocks(got) {
		gotSet[l] = true
	}
	out := ""
	for _, l := range splitBlocks(want) {
		if !gotSet[l] {
			out += "- " + firstLine(l) + "\n"
		}
	}
	for _, l := range splitBlocks(got) {
		if !wantSet[l] {
			out += "+ " + firstLine(l) + "\n"
		}
	}
	return out
}

func splitBlocks(s string) []string {
	var blocks []string
	for _, b := range strings.Split(s, "\n\n") {
		if b = strings.TrimSpace(b); b != "" {
			blocks = append(blocks, b)
		}
	}
	return blocks
}

func firstLine(block string) string {
	line, _, _ := strings.Cut(block, "\n")
	return line
}
