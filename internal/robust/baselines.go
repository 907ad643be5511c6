package robust

import (
	"math/rand"

	"rld/internal/optimizer"
	"rld/internal/paramspace"
)

// ES is the exhaustive-search baseline of §6.2: an optimizer call at every
// grid point of the discretized space. Its solution is exact (full coverage)
// but costs Steps^d calls. A MaxCalls budget truncates the scan, leaving the
// unvisited suffix uncovered — this is how Figure 11 plots ES at small call
// budgets.
func ES(opt *optimizer.Counter, space *paramspace.Space, cfg Config) *Result {
	res := &Result{Space: space}
	full := space.FullRegion()
	exhausted := false
	full.ForEach(func(g paramspace.GridPoint) bool {
		plan, _, ok := opt.Best(space.At(g))
		if !ok {
			exhausted = true
			return false
		}
		res.add(plan, paramspace.Region{Lo: g.Clone(), Hi: g.Clone()})
		return true
	})
	if exhausted {
		// Everything not yet visited is uncovered; represent it coarsely
		// as the full region minus accounting (exact per-point accounting
		// is done by the coverage evaluator).
		res.Uncovered = append(res.Uncovered, full)
	}
	res.Calls = opt.Calls
	return res
}

// RS is the random-sampling baseline of §6.2: optimizer calls at uniformly
// random grid points, stopping after the aging threshold's worth of
// consecutive calls that discover no new distinct plan ("RS stops making
// optimizer calls if it fails to find a distinct robust logical plan after a
// given number of optimizer calls"). Each sampled point contributes a unit
// region; RS never certifies larger areas, which is why it underperforms the
// partitioning approaches on coverage (§6.3).
func RS(opt *optimizer.Counter, space *paramspace.Space, cfg Config) *Result {
	res := &Result{Space: space}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	threshold := cfg.RSPatience
	if threshold <= 0 {
		threshold = 10
	}
	misses := 0
	seen := make(map[string]bool)
	sampled := make(map[int]bool)
	d := space.D()
	for misses < threshold {
		if cfg.MaxCalls > 0 && opt.Calls >= cfg.MaxCalls {
			break
		}
		g := make(paramspace.GridPoint, d)
		for i := range g {
			g[i] = rng.Intn(space.Steps)
		}
		o := space.Ordinal(g)
		if sampled[o] {
			// Re-sampling a known point costs nothing (memoized) and
			// carries no information; skip without charging a miss.
			continue
		}
		sampled[o] = true
		plan, _, ok := opt.Best(space.At(g))
		if !ok {
			break
		}
		res.add(plan, paramspace.Region{Lo: g.Clone(), Hi: g.Clone()})
		if seen[plan.Key()] {
			misses++
		} else {
			seen[plan.Key()] = true
			misses = 0
		}
		if len(sampled) == space.NumPoints() {
			break
		}
	}
	res.Terminated = misses >= threshold
	res.Calls = opt.Calls
	return res
}
