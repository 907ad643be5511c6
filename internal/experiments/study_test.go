package experiments

import (
	"errors"
	"os"
	"testing"

	"rld/internal/chaos"
	"rld/internal/engine"
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
