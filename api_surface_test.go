package rld_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"rld/internal/apisurface"
)

var update = flag.Bool("update", false, "rewrite API_SURFACE.txt from the current exported surface")

// TestAPISurface is the API-compatibility gate: the public rld package's
// exported declaration surface must match the committed golden file, so a
// breaking change fails tier-1 until it is made explicit with
//
//	go test . -run APISurface -update
func TestAPISurface(t *testing.T) {
	got, err := apisurface.Surface(".")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("API_SURFACE.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("API_SURFACE.txt")
	if err != nil {
		t.Fatalf("missing golden file: %v (regenerate with `go test . -run APISurface -update`)", err)
	}
	if string(want) != got {
		t.Fatalf("public API surface drifted from API_SURFACE.txt:\n%s"+
			"If intentional, regenerate with `go test . -run APISurface -update`.",
			diffHint(string(want), got))
	}
}

// diffHint lists the declarations removed from (-) and added to (+) the
// surface, one first line each.
func diffHint(want, got string) string {
	wantSet, gotSet := map[string]bool{}, map[string]bool{}
	for _, b := range splitBlocks(want) {
		wantSet[b] = true
	}
	for _, b := range splitBlocks(got) {
		gotSet[b] = true
	}
	var out strings.Builder
	for _, b := range splitBlocks(want) {
		if !gotSet[b] {
			out.WriteString("- " + firstLine(b) + "\n")
		}
	}
	for _, b := range splitBlocks(got) {
		if !wantSet[b] {
			out.WriteString("+ " + firstLine(b) + "\n")
		}
	}
	return out.String()
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
