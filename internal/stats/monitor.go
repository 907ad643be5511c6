// Package stats implements the statistic monitor of the RLD architecture
// (Figure 5): each machine periodically samples operator selectivities and
// stream input rates and ships them to the robust load executor, which
// classifies incoming batches against the freshest snapshot. The monitor
// smooths samples with an EWMA so transient noise does not thrash the
// classifier.
package stats

import "sync"

// Snapshot is one consistent view of the monitored statistics.
type Snapshot struct {
	// Time is the application time of the last incorporated sample.
	Time float64
	// Sels[op] is the smoothed selectivity estimate per operator ID.
	Sels []float64
	// Rates[stream] is the smoothed input rate per stream.
	Rates map[string]float64
}

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	c := Snapshot{Time: s.Time, Sels: append([]float64(nil), s.Sels...), Rates: make(map[string]float64, len(s.Rates))}
	for k, v := range s.Rates {
		c.Rates[k] = v
	}
	return c
}

// Monitor collects periodic samples of the true statistics. It is safe for
// concurrent use (the live engine samples from several goroutines; the
// simulator uses it single-threaded). Its callers pace the samples: the
// engine offers every few batches, the simulator every 5 virtual seconds.
type Monitor struct {
	mu sync.Mutex
	// Alpha is the EWMA smoothing factor in (0, 1]; 1 = no smoothing.
	alpha  float64
	cur    Snapshot
	primed bool
}

// NewMonitor returns a monitor for nOps operators with the given EWMA alpha.
func NewMonitor(nOps int, alpha float64) *Monitor {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &Monitor{
		alpha: alpha,
		cur: Snapshot{
			Sels:  make([]float64, nOps),
			Rates: make(map[string]float64),
		},
	}
}

// Offer submits an observation at time t. The first offer primes the
// monitor; later offers are EWMA-blended into it.
func (m *Monitor) Offer(t float64, sels []float64, rates map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.primed {
		copy(m.cur.Sels, sels)
		for k, v := range rates {
			m.cur.Rates[k] = v
		}
		m.primed = true
	} else {
		a := m.alpha
		for i := range m.cur.Sels {
			if i < len(sels) {
				m.cur.Sels[i] = a*sels[i] + (1-a)*m.cur.Sels[i]
			}
		}
		for k, v := range rates {
			if old, ok := m.cur.Rates[k]; ok {
				m.cur.Rates[k] = a*v + (1-a)*old
			} else {
				m.cur.Rates[k] = v
			}
		}
	}
	m.cur.Time = t
}

// Snapshot returns the current smoothed view.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.Clone()
}
