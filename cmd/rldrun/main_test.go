package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestRunGolden pins rldrun's full stdout for the simulator-only command
// lines CI runs: the study, the simulator and the fault model are all
// seeded, so a refactor that is not meant to move a row must leave every
// byte as it is. After a change that is meant to, rewrite the goldens with
//
//	go test ./cmd/rldrun -run RunGolden -update
func TestRunGolden(t *testing.T) {
	for name, args := range map[string]string{
		"default": "-minutes 2 -seed 1",
		"faults":  "-minutes 5 -seed 1 -faults crash:1@120-180;mode=checkpoint",
		"flags":   "-ops 6 -nodes 3 -ratio 3 -period 60 -batch 20 -seed 7 -minutes 3",
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(args), &out); err != nil {
				t.Fatal(err)
			}
			golden := "testdata/" + name + ".golden"
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Fatalf("rldrun %s drifted from %s:\n--- got\n%s--- want\n%s", args, golden, out.String(), want)
			}
		})
	}
}

// TestRunRejectsUnusableFlags: a value no study can be built from, or a
// flag that cannot take effect with the others given, is a usage error
// (main exits 2), caught before anything runs.
func TestRunRejectsUnusableFlags(t *testing.T) {
	for _, args := range []string{
		"-nodes 0",
		"-nodes -1",
		"-batch 0",
		"-minutes 0",
		"-ratio 0",
		"-ratio -1",
		"-mincomplete 1.5",
		"-mincomplete 0.9 -live 10",
		"-mincomplete 0.9 -faults random",
		"-worker-bin rldworker",
		"-worker-bin rldworker -live 10",
		"-exactly-once",
		"-no-such-flag",
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(args), &out); !errors.Is(err, errUsage) {
			t.Errorf("rldrun %s: %v, want a usage error", args, err)
		}
		if out.Len() > 0 {
			t.Errorf("rldrun %s wrote to stdout:\n%s", args, out.String())
		}
	}
}
