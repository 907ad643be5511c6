package sim

import (
	"container/heap"
	"math/rand"

	"rld/internal/runtime"
	"rld/internal/stream"
)

// Arrivals returns the scenario's own arrival processes up to horizon
// virtual seconds as a feed. Each stream delivers a ruster of BatchSize
// tuples once it has accumulated at its true rate, with ±10 % jitter drawn
// from the scenario's seed; a stream at rate 0 re-polls a second later.
// Equal times go in booking order. Every row of a batch carries its
// arrival time, all the simulator reads of it, and the batch stays valid
// until the next call to Next.
func (sc *Scenario) Arrivals(horizon float64) runtime.Feed {
	size := max(sc.BatchSize, 1)
	a := &arrivals{sc: sc, horizon: horizon, size: size,
		rng: rand.New(rand.NewSource(sc.Seed + 77)), b: stream.NewSizedBatch("", 0, size)}
	for _, st := range sc.Query.Streams {
		a.schedule(st, 0)
	}
	return a
}

// arrivals is the feed of Arrivals; its heap holds each stream's next
// arrival or re-poll.
type arrivals struct {
	sc      *Scenario
	horizon float64
	size    int
	rng     *rand.Rand
	events  eventQueue
	seq     int64
	b       *stream.Batch
}

// schedule books a stream's next event after from: the arrival of a ruster
// accumulated at the rate at from, or a re-poll when that rate is 0.
func (a *arrivals) schedule(st string, from float64) {
	e := &event{t: from + 1, stream: st, poll: true, seq: a.seq}
	a.seq++
	if rate := a.sc.RateAt(st, from); rate > 0 {
		gap := float64(a.size) / rate
		gap *= 0.9 + 0.2*a.rng.Float64()
		e.t, e.poll = from+gap, false
	}
	heap.Push(&a.events, e)
}

// Next implements runtime.Feed.
func (a *arrivals) Next() *stream.Batch {
	for a.events.Len() > 0 && a.events[0].t <= a.horizon {
		e := heap.Pop(&a.events).(*event)
		a.schedule(e.stream, e.t)
		if !e.poll {
			a.b.Reset()
			a.b.Stream = e.stream
			for range a.size {
				a.b.AppendRow(0, stream.Time(e.t), 0, stream.Time(e.t))
			}
			return a.b
		}
	}
	return nil
}
