package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"rld"
)

// span is one timed call into a layer, recorded from the harness side of
// the call. Parent is the index of the enclosing span (-1 at the root) and
// Batch the global index of the batch the call served (-1 when none).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Batch   int    `json:"batch"`
}

// tracer keeps spans in memory until the run ends. One goroutine (the
// producer) records, so it needs no lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.epoch).Nanoseconds(), Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].EndNs = time.Since(t.epoch).Nanoseconds()
	return time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, how many spans there were and
// their mean self time: duration minus the part child spans cover.
func (t *tracer) printSelfTimes() {
	self, count := map[string]int64{}, map[string]int{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range t.spans {
		self[s.Name] += s.EndNs - s.StartNs - child[i]
		count[s.Name]++
	}
	names := make([]string, 0, len(count))
	for name := range count {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  spans, mean self time (duration − children):\n")
	for _, name := range names {
		fmt.Printf("    %-18s %8d spans %10.2f µs\n", name, count[name], float64(self[name])/1e3/float64(count[name]))
	}
}

// offerTraced is offer with the admission split in two when tracing: a
// TryIngest that either admits the batch (span session.admit) or is refused
// at capacity (session.refused), and then a blocking Ingest (session.wait)
// whose time is almost all waiting for room. At depth 1 nearly every offer
// is refused and waits; under a paced load nearly every offer is admitted.
// Offers that cross a tick or checkpoint edge are rooted at offer.edge, so
// the control path's cost is not averaged into admission.
func (pp *pipe) offerTraced() {
	t := pp.r.trace
	if t == nil {
		pp.offer()
		return
	}
	g := pp.next
	b := pp.r.feed.emit(g)
	pp.next++
	pp.r.attempted++
	name := "offer"
	if pp.crossesEdge(g) {
		name = "offer.edge"
	}
	root := t.begin(name, -1, g)
	try := t.begin("session.admit", root, g)
	err := pp.p.TryIngest(b)
	t.end(try)
	if errors.Is(err, rld.ErrBackpressure) {
		t.spans[try].Name = "session.refused"
		wait := t.begin("session.wait", root, g)
		err = pp.p.Ingest(pp.r.ctx, b)
		t.end(wait)
	}
	t.end(root)
	if err != nil {
		pp.r.fail("ingest batch %d: %v", g, err)
	}
}

// crossesEdge reports whether batch g is the first whose timestamp reaches
// a tick edge (checkpoint edges are tick edges too).
func (pp *pipe) crossesEdge(g int) bool {
	if g == 0 {
		return false
	}
	tick := pp.r.spec.tickEvery()
	return int(pp.r.feed.lastTs(g)/tick) > int(pp.r.feed.lastTs(g-1)/tick)
}
