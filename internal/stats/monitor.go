// Package stats implements the statistic monitor of the RLD architecture
// (Figure 5): each machine periodically samples operator selectivities and
// stream input rates and ships them to the robust load executor, which
// classifies incoming batches against the freshest snapshot. The monitor
// smooths samples with an EWMA so transient noise does not thrash the
// classifier. Every substrate samples at its control tick.
package stats

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Snapshot is one consistent view of the monitored statistics. A snapshot
// a Monitor publishes is immutable: readers share it, and the next Offer
// publishes a new one.
type Snapshot struct {
	// Time is the application time of the last incorporated sample.
	Time float64
	// Sels[op] is the smoothed selectivity estimate per operator ID.
	Sels []float64
	// Rates[stream] is the smoothed input rate per stream.
	Rates map[string]float64
}

// Monitor smooths periodic samples of the statistics and publishes the
// result. Its callers pace the samples, once per control tick on every
// substrate. Offers are serialized; Snapshot is one atomic load, so
// classifying a batch never waits for an offer.
type Monitor struct {
	mu sync.Mutex // serializes Offer
	// alpha is the EWMA smoothing factor in (0, 1]; 1 = no smoothing.
	alpha  float64
	primed bool //rldlint:guardedby mu
	cur    atomic.Pointer[Snapshot]
}

// NewMonitor returns a monitor with the given EWMA alpha that publishes
// prior, typically the compile-time estimates, until the first Offer
// replaces it.
func NewMonitor(alpha float64, prior Snapshot) *Monitor {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	m := &Monitor{alpha: alpha}
	m.cur.Store(&prior)
	return m
}

// Offer submits an observation at time t and publishes the result. The
// first offer replaces the prior; later offers are EWMA-blended into the
// published snapshot, and a stream that an offer leaves out keeps its rate.
func (m *Monitor) Offer(t float64, sels []float64, rates map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := &Snapshot{Time: t, Sels: slices.Clone(sels), Rates: make(map[string]float64, len(rates))}
	maps.Copy(next.Rates, rates)
	if m.primed {
		old, a := m.cur.Load(), m.alpha
		for i := range next.Sels {
			if i < len(old.Sels) {
				next.Sels[i] = a*next.Sels[i] + (1-a)*old.Sels[i]
			}
		}
		for k, v := range old.Rates {
			if r, ok := next.Rates[k]; ok {
				next.Rates[k] = a*r + (1-a)*v
			} else {
				next.Rates[k] = v
			}
		}
	}
	m.primed = true
	m.cur.Store(next)
}

// Snapshot returns the published view. It is shared, not copied: callers
// must not modify it.
func (m *Monitor) Snapshot() Snapshot { return *m.cur.Load() }
