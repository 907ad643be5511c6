// Package chaos defines scripted fault schedules for both runtime
// substrates: a FaultPlan is a deterministic sequence of node crashes
// (with recovery) and transient slowdowns, injected at virtual-time
// boundaries, so RLD, ROD, and DYN can be compared under *identical*
// failure scenarios. The paper's robustness claim covers workload
// fluctuation; this package opens the other half of robustness — node
// failure and recovery — that every production engine treats as table
// stakes (RainStorm's leader/worker recovery, Skitter's re-placement on
// membership change).
//
// The package has no dependencies on the rest of the system; the
// simulator models a down node as zero capacity and the live engine
// actually kills the node's worker pool (see internal/sim and
// internal/engine).
//
// Checkpoint mode is also the anchor for exactly-once durability:
// sessions opened with a write-ahead log (rld.WithExactlyOnce) replay
// the logged suffix over the restored snapshot, which only makes sense
// when recovery restores state at all — LoseState discards it by
// definition, so the WAL never replays under lose.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RecoveryMode selects what happens to a crashed node's state and
// in-flight work.
type RecoveryMode int

const (
	// LoseState drops the node's queued work and discards its operators'
	// join-window state: recovery starts from an empty window that refills
	// as new tuples arrive. Work routed to the node while it is down is
	// lost too.
	LoseState RecoveryMode = iota
	// Checkpoint parks work routed to the down node for replay on
	// recovery and restores the node's operators' join-window state from
	// the most recent periodic shard snapshot (tuples newer than the
	// snapshot are lost). The simulator, which has no real window state,
	// models this mode by stalling the node's queue instead of dropping
	// it.
	Checkpoint
)

// String implements fmt.Stringer (and the -faults flag syntax).
func (m RecoveryMode) String() string {
	if m == Checkpoint {
		return "checkpoint"
	}
	return "lose"
}

// FaultKind discriminates fault types.
type FaultKind int

const (
	// Crash takes a node fully down for [At, Until): zero capacity, dead
	// worker pool.
	Crash FaultKind = iota
	// Slowdown runs a node at Factor × capacity for [At, Until) — a
	// transient straggler.
	Slowdown
)

// Fault is one scripted fault: a node is crashed or slowed over the
// half-open virtual-time interval [At, Until).
type Fault struct {
	// Kind is Crash or Slowdown.
	Kind FaultKind
	// Node is the target node index.
	Node int
	// At is the fault start in virtual seconds.
	At float64
	// Until is the fault end (recovery / return to full speed).
	Until float64
	// Factor is the capacity multiplier in (0, 1] for Slowdown faults
	// (ignored for crashes).
	Factor float64
}

// DefaultCheckpointEvery is the snapshot period used when a Checkpoint-mode
// plan leaves CheckpointEvery unset.
const DefaultCheckpointEvery = 30.0

// FaultPlan is a deterministic fault schedule plus its recovery
// configuration. The zero value is a valid empty plan.
type FaultPlan struct {
	// Faults is the scripted fault list (order is irrelevant; Events
	// sorts).
	Faults []Fault
	// Mode selects crash-recovery semantics (LoseState or Checkpoint).
	Mode RecoveryMode
	// CheckpointEvery is the periodic shard-snapshot period in virtual
	// seconds (Checkpoint mode; 0 means DefaultCheckpointEvery).
	CheckpointEvery float64
}

// SnapshotEvery returns the effective checkpoint period.
func (p *FaultPlan) SnapshotEvery() float64 {
	if p.CheckpointEvery > 0 {
		return p.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

// Empty reports whether the plan schedules no faults.
func (p *FaultPlan) Empty() bool { return p == nil || len(p.Faults) == 0 }

// Validate checks the plan against a cluster size: node indexes in range,
// positive intervals, slowdown factors in (0, 1], and no overlapping
// same-kind faults on one node — a node cannot crash while already down,
// and overlapping slowdowns would end early when the first interval's end
// edge resets the node to full speed.
func (p *FaultPlan) Validate(nNodes int) error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if f.Node < 0 || f.Node >= nNodes {
			return fmt.Errorf("chaos: fault %d targets node %d of %d", i, f.Node, nNodes)
		}
		if f.At < 0 || f.Until <= f.At {
			return fmt.Errorf("chaos: fault %d has empty interval [%g, %g)", i, f.At, f.Until)
		}
		if f.Kind == Slowdown && (f.Factor <= 0 || f.Factor > 1) {
			return fmt.Errorf("chaos: fault %d slowdown factor %g outside (0, 1]", i, f.Factor)
		}
	}
	for i, a := range p.Faults {
		for j, b := range p.Faults {
			if j <= i || a.Kind != b.Kind || a.Node != b.Node {
				continue
			}
			if a.At < b.Until && b.At < a.Until {
				return fmt.Errorf("chaos: faults %d and %d overlap on node %d", i, j, a.Node)
			}
		}
	}
	return nil
}

// Event is one edge of a fault interval: Begin=true at Fault.At (crash /
// slowdown onset), Begin=false at Fault.Until (recovery / full speed).
type Event struct {
	// T is the edge's virtual time.
	T float64
	// Begin marks fault onset; false marks the fault's end.
	Begin bool
	// Fault is the scripted fault this edge belongs to.
	Fault Fault
}

// Events returns the plan's interval edges sorted by time, ends before
// begins at equal times (a node scheduled to recover at t and crash again
// at t recovers first).
func (p *FaultPlan) Events() []Event {
	if p.Empty() {
		return nil
	}
	out := make([]Event, 0, 2*len(p.Faults))
	for _, f := range p.Faults {
		out = append(out, Event{T: f.At, Begin: true, Fault: f})
		out = append(out, Event{T: f.Until, Begin: false, Fault: f})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return !out[i].Begin && out[j].Begin
	})
	return out
}

// Cursor consumes a plan's events as virtual time advances (a live
// session injects faults batch by batch; the simulator schedules them as
// discrete events directly).
type Cursor struct {
	events []Event
	next   int
}

// Cursor returns a fresh event cursor over the plan.
func (p *FaultPlan) Cursor() *Cursor { return &Cursor{events: p.Events()} }

// Advance returns (and consumes) all events with T ≤ now, in order.
func (c *Cursor) Advance(now float64) []Event {
	start := c.next
	for c.next < len(c.events) && c.events[c.next].T <= now {
		c.next++
	}
	return c.events[start:c.next]
}

// Done reports whether every event has been consumed.
func (c *Cursor) Done() bool { return c.next >= len(c.events) }

// Peek returns the next unconsumed event's time without consuming it; ok
// is false when the cursor is exhausted. The live engine's session uses it
// to decide, lock-free, whether an ingested batch crosses a fault edge.
func (c *Cursor) Peek() (t float64, ok bool) {
	if c.Done() {
		return 0, false
	}
	return c.events[c.next].T, true
}

// String renders the plan in the -faults flag syntax; Parse inverts it.
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	var sb strings.Builder
	for i, f := range p.Faults {
		if i > 0 {
			sb.WriteByte(',')
		}
		switch f.Kind {
		case Crash:
			fmt.Fprintf(&sb, "crash:%d@%s-%s", f.Node, fmtNum(f.At), fmtNum(f.Until))
		case Slowdown:
			fmt.Fprintf(&sb, "slow:%d@%s-%sx%s", f.Node, fmtNum(f.At), fmtNum(f.Until), fmtNum(f.Factor))
		}
	}
	fmt.Fprintf(&sb, ";mode=%s", p.Mode)
	if p.CheckpointEvery > 0 {
		fmt.Fprintf(&sb, ";every=%s", fmtNum(p.CheckpointEvery))
	}
	return sb.String()
}

// fmtNum prints v without an exponent: the interval syntax splits on "-",
// so "1e-05" would not parse back.
func fmtNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// Parse reads a fault plan from the -faults flag syntax:
//
//	plan   := entry ("," entry)* (";" option)*
//	entry  := "crash:" node "@" start "-" end
//	        | "slow:"  node "@" start "-" end "x" factor
//	option := "mode=" ("lose" | "checkpoint") | "every=" seconds
//
// Example: "crash:1@120-180,slow:0@300-360x0.5;mode=checkpoint;every=30"
// crashes node 1 for [120, 180) and runs node 0 at half speed for
// [300, 360), with checkpoint-restore recovery from 30-second snapshots.
// The default mode is checkpoint.
func Parse(s string) (*FaultPlan, error) {
	p := &FaultPlan{Mode: Checkpoint}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	parts := strings.Split(s, ";")
	for _, opt := range parts[1:] {
		opt = strings.TrimSpace(opt)
		switch {
		case opt == "":
		case strings.HasPrefix(opt, "mode="):
			switch strings.TrimPrefix(opt, "mode=") {
			case "lose":
				p.Mode = LoseState
			case "checkpoint":
				p.Mode = Checkpoint
			default:
				return nil, fmt.Errorf("chaos: unknown mode %q (lose|checkpoint)", strings.TrimPrefix(opt, "mode="))
			}
		case strings.HasPrefix(opt, "every="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(opt, "every="), 64)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("chaos: bad checkpoint period %q", strings.TrimPrefix(opt, "every="))
			}
			p.CheckpointEvery = v
		default:
			return nil, fmt.Errorf("chaos: unknown option %q", opt)
		}
	}
	entries := strings.TrimSpace(parts[0])
	if entries == "" {
		return p, nil
	}
	for _, ent := range strings.Split(entries, ",") {
		f, err := parseEntry(strings.TrimSpace(ent))
		if err != nil {
			return nil, err
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}

// parseEntry reads one "kind:node@start-end[xfactor]" entry.
func parseEntry(ent string) (Fault, error) {
	var f Fault
	kind, rest, ok := strings.Cut(ent, ":")
	if !ok {
		return f, fmt.Errorf("chaos: entry %q missing kind (crash:|slow:)", ent)
	}
	switch kind {
	case "crash":
		f.Kind = Crash
	case "slow":
		f.Kind = Slowdown
	default:
		return f, fmt.Errorf("chaos: unknown fault kind %q in %q", kind, ent)
	}
	nodeStr, span, ok := strings.Cut(rest, "@")
	if !ok {
		return f, fmt.Errorf("chaos: entry %q missing @interval", ent)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return f, fmt.Errorf("chaos: bad node %q in %q", nodeStr, ent)
	}
	f.Node = node
	if f.Kind == Slowdown {
		var facStr string
		span, facStr, ok = strings.Cut(span, "x")
		if !ok {
			return f, fmt.Errorf("chaos: slowdown %q missing xfactor", ent)
		}
		if f.Factor, err = strconv.ParseFloat(facStr, 64); err != nil {
			return f, fmt.Errorf("chaos: bad factor %q in %q", facStr, ent)
		}
	}
	atStr, untilStr, ok := strings.Cut(span, "-")
	if !ok {
		return f, fmt.Errorf("chaos: entry %q interval must be start-end", ent)
	}
	if f.At, err = strconv.ParseFloat(atStr, 64); err != nil {
		return f, fmt.Errorf("chaos: bad start %q in %q", atStr, ent)
	}
	if f.Until, err = strconv.ParseFloat(untilStr, 64); err != nil {
		return f, fmt.Errorf("chaos: bad end %q in %q", untilStr, ent)
	}
	return f, nil
}
