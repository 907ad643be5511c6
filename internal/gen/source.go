package gen

import (
	"math"
	"math/rand"

	"rld/internal/stream"
)

// KeyDist draws equi-join keys so that the pairwise match probability
// (selectivity) between two streams sharing the distribution tracks a target
// profile. The construction: with probability q the key is the shared hot
// key 0, otherwise it is uniform over a cold domain of size Cold. Two
// independent draws match with probability q² + (1-q)²/Cold, which is
// monotone in q, so we invert it numerically per draw.
type KeyDist struct {
	// Target is the desired match selectivity over time, clamped to
	// [1/Cold-ish floor, 1].
	Target Profile
	// Cold is the cold key domain size (default 10_000).
	Cold int64
}

// hotProb returns the q achieving selectivity delta.
func (k KeyDist) hotProb(delta float64) float64 {
	cold := float64(k.Cold)
	if cold < 2 {
		cold = 2
	}
	floor := 1 / cold
	if delta <= floor {
		return 0
	}
	if delta >= 1 {
		return 1
	}
	// Solve q² + (1-q)²/cold = delta for q in [0,1]:
	// (1+1/cold) q² - (2/cold) q + (1/cold - delta) = 0.
	a := 1 + 1/cold
	b := -2 / cold
	c := 1/cold - delta
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0
	}
	q := (-b + math.Sqrt(disc)) / (2 * a)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return q
}

// Draw samples a key at application time t.
func (k KeyDist) Draw(rng *rand.Rand, t float64) int64 {
	cold := k.Cold
	if cold < 2 {
		cold = 10000
	}
	delta := 0.0
	if k.Target != nil {
		delta = k.Target.At(t)
	}
	if rng.Float64() < k.hotProb(delta) {
		return 0
	}
	return 1 + rng.Int63n(cold)
}

// Selectivity reports the analytic match probability at time t (used as
// ground truth by the simulator and monitors).
func (k KeyDist) Selectivity(t float64) float64 {
	if k.Target == nil {
		return 0
	}
	cold := float64(k.Cold)
	if cold < 2 {
		cold = 10000
	}
	q := k.hotProb(k.Target.At(t))
	return q*q + (1-q)*(1-q)/cold
}

// Source generates one stream's tuples: a (possibly time-varying) Poisson
// arrival process with payloads from a value distribution and keys from a
// KeyDist.
type Source struct {
	// Name is the stream name.
	Name string
	// Rate is the arrival rate profile in tuples/second.
	Rate Profile
	// Keys draws join keys; if zero-valued, keys are uniform over 10k.
	Keys KeyDist
	// Values is the payload distribution (Table 2: Uniform(0,100) or
	// Poisson(1)); nil yields empty payloads.
	Values Dist
	// Width is the payload arity (default 1 when Values != nil).
	Width int

	rng  *rand.Rand
	now  float64
	seq  uint64
	open bool
}

// NewSource returns a Source with its own deterministic RNG derived from
// seed.
func NewSource(name string, rate Profile, keys KeyDist, values Dist, seed int64) *Source {
	return &Source{Name: name, Rate: rate, Keys: keys, Values: values, rng: rand.New(rand.NewSource(seed)), open: true}
}

// Arity returns the payload width of this source's tuples.
func (s *Source) Arity() int {
	if s.Width > 0 {
		return s.Width
	}
	if s.Values != nil {
		return 1
	}
	return 0
}

// step advances the arrival process one tuple: an exponential gap at the
// current instantaneous rate, then a key draw. It returns the new tuple's
// attributes without materializing it; the payload draws follow (fillVals).
func (s *Source) step() (seq uint64, ts float64, key int64, ok bool) {
	if !s.open || s.rng == nil {
		return 0, 0, 0, false
	}
	// Advance time by an exponential gap at the current instantaneous rate,
	// re-evaluating across profile changes with a small step cap so step and
	// square profiles are honored closely.
	const maxTries = 10000
	for i := 0; i < maxTries; i++ {
		r := 1.0
		if s.Rate != nil {
			r = s.Rate.At(s.now)
		}
		if r <= 0 {
			// Idle interval: skip forward and retry.
			s.now += 0.1
			continue
		}
		gap := s.rng.ExpFloat64() / r
		// Bound gaps so rate changes mid-gap are re-sampled; unbiased for
		// piecewise-constant profiles by memorylessness.
		const gapBound = 0.5
		if gap > gapBound {
			s.now += gapBound
			continue
		}
		s.now += gap
		seq, ts, key = s.seq, s.now, s.Keys.Draw(s.rng, s.now)
		s.seq++
		return seq, ts, key, true
	}
	return 0, 0, 0, false
}

// fillVals samples the payload into row (the post-key RNG draws).
func (s *Source) fillVals(row []float64) {
	if s.Values == nil {
		return
	}
	for j := range row {
		row[j] = s.Values.Sample(s.rng)
	}
}

// AppendNext generates the next tuple directly into b's columns, without
// allocating (b's width should be Arity()); its application timestamp is
// also its arrival stamp. The arrival process is a time-varying Poisson
// process realized by inverting exponential gaps against the instantaneous
// rate (thinning-free because our profiles are piecewise constant at the
// gap scale). Returns false when the rate is zero or negative forever
// after; the batch is unchanged in that case.
func (s *Source) AppendNext(b *stream.Batch) bool {
	seq, ts, key, ok := s.step()
	if !ok {
		return false
	}
	s.fillVals(b.AppendRow(seq, stream.Time(ts), key, stream.Time(ts)))
	return true
}

// Now returns the source's current application time in seconds.
func (s *Source) Now() float64 { return s.now }
