package experiments

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"rld/internal/chaos"
	"rld/internal/engine"
	"rld/internal/gen"
	"rld/internal/netrt"
)

// TestMain makes this test binary usable as a netrt worker: the Net
// substrate's runs spawn workers by re-executing it.
func TestMain(m *testing.M) {
	netrt.MaybeWorker()
	os.Exit(m.Run())
}

func TestNewStudyRejectsUnbuildableOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*StudyOptions)
	}{
		{"no nodes", func(o *StudyOptions) { o.Nodes = 0 }},
		{"negative nodes", func(o *StudyOptions) { o.Nodes = -1 }},
		{"no batch", func(o *StudyOptions) { o.Batch = 0 }},
		{"no horizon", func(o *StudyOptions) { o.Horizon = 0 }},
		{"negative horizon", func(o *StudyOptions) { o.Horizon = -60 }},
		{"no headroom", func(o *StudyOptions) { o.Headroom = 0 }},
		{"negative headroom", func(o *StudyOptions) { o.Headroom = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := DefaultStudy()
			tc.edit(&o)
			if _, err := NewStudy(o); !errors.Is(err, ErrBadStudy) {
				t.Fatalf("NewStudy = %v, want ErrBadStudy", err)
			}
		})
	}
	// A fixed per-node capacity needs no headroom.
	o := DefaultStudy()
	o.Ops, o.Horizon, o.Headroom, o.PerNodeCapacity = 3, 60, 0, 1000
	if _, err := NewStudy(o); err != nil {
		t.Fatalf("NewStudy with PerNodeCapacity and no Headroom: %v", err)
	}
}

// TestStudyOnLiveSubstrates runs a short study through the engine and
// worker processes: three reports in table order carrying their substrate,
// RLD executing without a migration, and a scripted crash booked by every
// policy.
func TestStudyOnLiveSubstrates(t *testing.T) {
	o := DefaultStudy()
	o.Ops, o.Nodes, o.Horizon = 3, 3, 60
	s, err := NewStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.Parse("crash:1@5-10;mode=checkpoint;every=5")
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []Substrate{s.Engine(20, engine.DefaultConfig()), s.Net(20, engine.DefaultConfig(), nil)} {
		t.Run(sub.Name, func(t *testing.T) {
			reports, err := s.Run(sub, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range reports {
				if r.Policy != policySeries[i] || r.Substrate != sub.Name {
					t.Fatalf("report %d is %s on %q, want %s on %q", i, r.Policy, r.Substrate, policySeries[i], sub.Name)
				}
			}
			if rld := reports[2]; rld.Migrations != 0 || rld.Produced <= 0 {
				t.Fatalf("RLD: %d migrations, %v produced; want 0 and > 0", rld.Migrations, rld.Produced)
			}
			faulted, err := s.Run(sub, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range faulted {
				if r.Crashes != 1 {
					t.Fatalf("%s under %s: %d crashes, want 1", r.Policy, plan, r.Crashes)
				}
			}
		})
	}
}

// TestStudySimGolden pins every field of every simulator report of a
// small study grid at full precision: constant, square-wave and
// idle-then-resume rates (the last is 0 for the first minute, so each
// stream re-polls before its first batch), two batch sizes, and no faults,
// a checkpointed crash plus a slowdown, or a crash that loses its state.
// A change to how the simulator is entered or fed must leave it byte for
// byte. After a change that is meant to move a report, rewrite it with
//
//	go test ./internal/experiments -run StudySimGolden -update
func TestStudySimGolden(t *testing.T) {
	rates := []struct {
		name string
		rate func(base float64) gen.Profile
	}{
		{"const", func(base float64) gen.Profile { return gen.ConstProfile(2 * base) }},
		{"square", func(base float64) gen.Profile { return gen.SquareProfile{Lo: 0.5 * base, Hi: 1.5 * base, Period: 10} }},
		{"idle-then-resume", func(base float64) gen.Profile {
			return gen.StepProfile{Times: []float64{60}, Vals: []float64{0, 1.5 * base}}
		}},
	}
	faults := []string{"", "crash:1@100-160,slow:0@200-260x0.5;mode=checkpoint", "crash:2@100-160;mode=lose"}
	var sb strings.Builder
	for _, r := range rates {
		for _, batch := range []int{10, 200} {
			o := DefaultStudy()
			o.Ops, o.Nodes, o.Horizon, o.Batch = 3, 3, 300, batch
			o.RateFor = func(_ string, base float64) gen.Profile { return r.rate(base) }
			s, err := NewStudy(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				var plan *chaos.FaultPlan
				if f != "" {
					if plan, err = chaos.Parse(f); err != nil {
						t.Fatal(err)
					}
				}
				reports, err := s.Run(s.Sim(), plan)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "# rate=%s batch=%d faults=%q\n", r.name, batch, f)
				for _, rep := range reports {
					fmt.Fprintf(&sb, "%+v\n", *rep)
				}
			}
		}
	}
	const golden = "testdata/study_sim.golden"
	got := sb.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("simulator reports drifted from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
