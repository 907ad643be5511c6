package gen

import "math/rand"

// Regime models the bull/bear market regimes of the paper's motivating
// Example 1: under a bullish regime the pattern-match operator (op1) is
// selective-high while news/blog matches (op2, op3) are low, and vice versa
// under a bearish regime. A RegimeProfile flips between the two settings.
type Regime int

// Market regimes.
const (
	Bull Regime = iota
	Bear
)

// RegimeProfile selects between a bull and a bear selectivity depending on a
// square-wave regime schedule with the given period (seconds). A zero period
// pins the regime to Bull.
type RegimeProfile struct {
	BullVal, BearVal float64
	Period           float64
	PhaseShift       float64
}

// At implements Profile.
func (r RegimeProfile) At(t float64) float64 {
	if r.Regime(t) == Bull {
		return r.BullVal
	}
	return r.BearVal
}

// Regime returns the active regime at time t.
func (r RegimeProfile) Regime(t float64) Regime {
	if r.Period <= 0 {
		return Bull
	}
	w := SquareProfile{Lo: 0, Hi: 1, Period: r.Period, PhaseShift: r.PhaseShift}
	if w.At(t) > 0.5 {
		return Bull
	}
	return Bear
}

// StockFeedNames are the streams of the Stocks-News-Blogs-Currency data set
// (§6.1) used by the motivating query Q1.
var StockFeedNames = []string{"Stock", "News", "Blogs", "Research", "Currency"}

// StockFeed builds the synthetic Stocks-News-Blogs-Currency sources. The
// regimePeriod controls how often the market flips between bull and bear,
// inverting the relative selectivities exactly as in Example 1.
func StockFeed(cfg Config, regimePeriod float64, seed int64) []*Source {
	sources := make([]*Source, 0, len(StockFeedNames))
	for i, name := range StockFeedNames {
		// Stagger per-stream match-probability regimes so plans invert.
		// Targets are per-pair equi-join match probabilities; over a
		// time-window of W tuples a probe fans out to ≈ target·W
		// matches, so targets sit in the per-mille range to keep join
		// outputs realistic.
		sel := Profile(RegimeProfile{
			BullVal:    0.030 - 0.004*float64(i),
			BearVal:    0.006 + 0.004*float64(i),
			Period:     regimePeriod,
			PhaseShift: float64(i) * regimePeriod / 5,
		})
		src := NewSource(name,
			ConstProfile(cfg.BaseRate),
			KeyDist{Target: Clamped{Inner: sel, Lo: 0.001, Hi: 0.95}, Cold: 10000},
			Uniform{A: 0, B: 100},
			seed+int64(i)*7919,
		)
		src.Width = 2
		sources = append(sources, src)
	}
	return sources
}

// SensorFeedNames lists simulated Intel-lab sensor streams (temperature,
// humidity, light, voltage readings from motes).
var SensorFeedNames = []string{"Temp", "Humid", "Light", "Volt"}

// SensorFeed builds sensor sources whose readings follow per-mote random
// walks and whose rates fluctuate with the given square-wave period,
// mimicking epoch bursts in the Intel Research Berkeley Lab trace.
func SensorFeed(cfg Config, fluctuationPeriod float64, seed int64) []*Source {
	sources := make([]*Source, 0, len(SensorFeedNames))
	for i, name := range SensorFeedNames {
		rate := Profile(ConstProfile(cfg.BaseRate))
		if fluctuationPeriod > 0 {
			rate = SquareProfile{
				Lo:         cfg.BaseRate * 0.5,
				Hi:         cfg.BaseRate * 1.5,
				Period:     fluctuationPeriod,
				PhaseShift: float64(i) * fluctuationPeriod / 4,
			}
		}
		src := NewSource(name,
			rate,
			KeyDist{Target: ConstProfile(0.3), Cold: 2048},
			&randomWalk{step: 0.5, level: 20 + 5*float64(i)},
			seed+int64(i)*104729,
		)
		sources = append(sources, src)
	}
	return sources
}

// randomWalk is a bounded random-walk value distribution for sensor-style
// readings (stateful: successive samples are correlated).
type randomWalk struct {
	step  float64
	level float64
}

// Sample implements Dist.
func (r *randomWalk) Sample(rng *rand.Rand) float64 {
	r.level += (rng.Float64()*2 - 1) * r.step
	if r.level < 0 {
		r.level = 0
	}
	return r.level
}

// Mean implements Dist (approximate: the current level).
func (r *randomWalk) Mean() float64 { return r.level }
