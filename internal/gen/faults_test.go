package gen

import (
	"testing"

	"rld/internal/chaos"
)

func TestFaultsDeterministicAndValid(t *testing.T) {
	cfg := FaultConfig{Crashes: 3, Slowdowns: 2, Mode: chaos.Checkpoint}
	a := Faults(cfg, 4, 600, 7)
	b := Faults(cfg, 4, 600, 7)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	crashes := 0
	for _, f := range a.Faults {
		if f.Kind == chaos.Crash {
			crashes++
		}
	}
	if len(a.Faults) != 5 || crashes != 3 {
		t.Fatalf("got %d faults / %d crashes", len(a.Faults), crashes)
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	other := Faults(cfg, 4, 600, 8)
	if a.String() == other.String() {
		t.Fatal("different seeds produced identical schedules")
	}
	for i, f := range a.Faults {
		if f.At < 60 || f.Until > 540 {
			t.Errorf("fault %d [%g, %g) outside the middle 80%%", i, f.At, f.Until)
		}
		if i > 0 && f.At < a.Faults[i-1].Until {
			t.Errorf("faults %d and %d overlap in time", i-1, i)
		}
		if f.Kind == chaos.Slowdown && f.Factor != 0.5 {
			t.Errorf("slowdown %d factor %g, want default 0.5", i, f.Factor)
		}
	}
}

func TestFaultsEmptyAndDefaults(t *testing.T) {
	if p := Faults(FaultConfig{}, 3, 600, 1); !p.Empty() {
		t.Fatalf("zero-config plan not empty: %s", p)
	}
	p := Faults(DefaultFaultConfig(), 3, 600, 1)
	if len(p.Faults) != 1 || p.Faults[0].Kind != chaos.Crash {
		t.Fatalf("default config plan: %s", p)
	}
	if p.Mode != chaos.Checkpoint {
		t.Fatalf("default mode = %v", p.Mode)
	}
	// Outage length tracks the 5%-of-horizon default with ±50% jitter.
	d := p.Faults[0].Until - p.Faults[0].At
	if d < 0.025*600 || d > 0.075*600 {
		t.Fatalf("default outage length %g outside [15, 45]", d)
	}
}
