package chaos

import (
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	in := "crash:1@120-180,slow:0@300-360x0.5;mode=checkpoint;every=30"
	p, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 2 {
		t.Fatalf("parsed %d faults, want 2", len(p.Faults))
	}
	c := p.Faults[0]
	if c.Kind != Crash || c.Node != 1 || c.At != 120 || c.Until != 180 {
		t.Fatalf("crash fault parsed as %+v", c)
	}
	sl := p.Faults[1]
	if sl.Kind != Slowdown || sl.Node != 0 || sl.At != 300 || sl.Until != 360 || sl.Factor != 0.5 {
		t.Fatalf("slowdown fault parsed as %+v", sl)
	}
	if p.Mode != Checkpoint || p.CheckpointEvery != 30 {
		t.Fatalf("options parsed as mode=%v every=%v", p.Mode, p.CheckpointEvery)
	}
	if got := p.String(); got != in {
		t.Fatalf("String() = %q, want %q", got, in)
	}
	back, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != in {
		t.Fatalf("round trip diverged: %q", back.String())
	}
}

func TestParseDefaultsAndErrors(t *testing.T) {
	p, err := Parse("crash:0@10-20")
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != Checkpoint {
		t.Fatalf("default mode = %v, want checkpoint", p.Mode)
	}
	if p.SnapshotEvery() != DefaultCheckpointEvery {
		t.Fatalf("default snapshot period = %v", p.SnapshotEvery())
	}
	if p, err := Parse(""); err != nil || !p.Empty() {
		t.Fatalf("empty spec: plan %+v err %v", p, err)
	}
	for _, bad := range []string{
		"boom:0@1-2",          // unknown kind
		"crash:0",             // missing interval
		"crash:x@1-2",         // bad node
		"slow:0@1-2",          // missing factor
		"crash:0@1-2;mode=up", // unknown mode
		"crash:0@1-2;every=0", // bad period
		"crash:0@12",          // interval without end
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := &FaultPlan{Faults: []Fault{
		{Kind: Crash, Node: 1, At: 10, Until: 20},
		{Kind: Crash, Node: 1, At: 30, Until: 40},
		{Kind: Slowdown, Node: 0, At: 5, Until: 50, Factor: 0.5},
	}}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []*FaultPlan{
		{Faults: []Fault{{Kind: Crash, Node: 2, At: 1, Until: 2}}},                                            // node out of range
		{Faults: []Fault{{Kind: Crash, Node: 0, At: 5, Until: 5}}},                                            // empty interval
		{Faults: []Fault{{Kind: Crash, Node: 0, At: -1, Until: 5}}},                                           // negative start
		{Faults: []Fault{{Kind: Slowdown, Node: 0, At: 1, Until: 2, Factor: 1.5}}},                            // factor > 1
		{Faults: []Fault{{Kind: Crash, Node: 0, At: 1, Until: 10}, {Kind: Crash, Node: 0, At: 5, Until: 15}}}, // overlap
		{Faults: []Fault{ // overlapping slowdowns on one node: the first end edge would cut the second short
			{Kind: Slowdown, Node: 0, At: 100, Until: 300, Factor: 0.5},
			{Kind: Slowdown, Node: 0, At: 200, Until: 400, Factor: 0.5},
		}},
	}
	for i, p := range cases {
		if err := p.Validate(2); err == nil {
			t.Errorf("case %d accepted: %+v", i, p.Faults)
		}
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(2); err != nil {
		t.Fatalf("nil plan should validate: %v", err)
	}
}

func TestEventsOrderingAndCursor(t *testing.T) {
	p := &FaultPlan{Faults: []Fault{
		{Kind: Crash, Node: 0, At: 50, Until: 60},
		{Kind: Crash, Node: 1, At: 10, Until: 50}, // recovery ties with node 0's crash
	}}
	evs := p.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events", len(evs))
	}
	// Sorted by time; at t=50 the recovery (end) precedes the crash
	// (begin).
	if !(evs[0].T == 10 && evs[0].Begin) {
		t.Fatalf("first event %+v", evs[0])
	}
	if !(evs[1].T == 50 && !evs[1].Begin && evs[1].Fault.Node == 1) {
		t.Fatalf("tie order wrong: %+v", evs[1])
	}
	if !(evs[2].T == 50 && evs[2].Begin && evs[2].Fault.Node == 0) {
		t.Fatalf("tie order wrong: %+v", evs[2])
	}

	c := p.Cursor()
	if got := c.Advance(9); len(got) != 0 {
		t.Fatalf("advance(9) returned %d events", len(got))
	}
	if got := c.Advance(50); len(got) != 3 {
		t.Fatalf("advance(50) returned %d events, want 3", len(got))
	}
	if c.Done() {
		t.Fatal("cursor done too early")
	}
	if got := c.Advance(1000); len(got) != 1 || !c.Done() {
		t.Fatalf("final advance returned %d events, done=%v", len(got), c.Done())
	}
}

func TestPlanAccounting(t *testing.T) {
	p, err := Parse("crash:0@10-40,crash:1@100-130,slow:0@50-60x0.25;mode=lose")
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != LoseState {
		t.Fatalf("mode = %v", p.Mode)
	}
	crashes, down := 0, 0.0
	for _, f := range p.Faults {
		if f.Kind == Crash {
			crashes++
			down += f.Until - f.At
		}
	}
	if crashes != 2 || down != 60 {
		t.Fatalf("crashes = %d, scheduled down seconds = %v; want 2, 60", crashes, down)
	}
	if !strings.Contains(p.String(), "mode=lose") {
		t.Fatalf("String() lost the mode: %q", p.String())
	}
}

// FuzzParseFaultPlan: the -faults flag is typed by a person, so Parse must
// answer any string with a plan or an error that says "chaos:" — never a
// panic — and a plan it accepts must survive its own notation: String parses
// back to a plan that prints the same, fault for fault, and Validate and the
// event cursor accept whatever numbers it holds without panicking.
func FuzzParseFaultPlan(f *testing.F) {
	for _, s := range []string{
		"crash:1@120-180,slow:0@300-360x0.5;mode=checkpoint;every=30",
		"crash:0@10-20",
		"",
		"crash:0@10-40,crash:1@100-130,slow:0@50-60x0.25;mode=lose",
		"boom:0@1-2", "crash:0", "crash:x@1-2", "slow:0@1-2",
		"crash:0@1-2;mode=up", "crash:0@1-2;every=0", "crash:0@12",
		"crash:0@1e3-NaN;every=Inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			if p != nil || !strings.HasPrefix(err.Error(), "chaos: ") {
				t.Fatalf("Parse(%q) = (%v, %v), want no plan and a chaos: error", s, p, err)
			}
			return
		}
		printed := p.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) printed as %q, which does not parse: %v", s, printed, err)
		}
		if again := back.String(); again != printed || len(back.Faults) != len(p.Faults) || back.Mode != p.Mode {
			t.Fatalf("Parse(%q) printed as %q, which parses to %q", s, printed, again)
		}
		_ = p.Validate(4)
		for c := p.Cursor(); !c.Done(); {
			at, _ := c.Peek()
			if len(c.Advance(at)) == 0 {
				break // a NaN edge never compares as due
			}
		}
	})
}
