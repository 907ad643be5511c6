package paramspace

import "fmt"

// Region is an axis-aligned, inclusive box of grid points [Lo, Hi] inside a
// Space — the unit of partitioning in §4.3 and the robust region of a plan
// (Def. 2).
type Region struct {
	Lo, Hi GridPoint
}

// Valid reports whether the region is well-formed (Lo ≤ Hi pointwise, equal
// lengths).
func (r Region) Valid() bool {
	if len(r.Lo) != len(r.Hi) {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Contains reports whether g lies in the region.
func (r Region) Contains(g GridPoint) bool {
	if len(g) != len(r.Lo) {
		return false
	}
	for i := range g {
		if g[i] < r.Lo[i] || g[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// NumPoints returns the number of grid points inside the region.
func (r Region) NumPoints() int {
	n := 1
	for i := range r.Lo {
		n *= r.Hi[i] - r.Lo[i] + 1
	}
	return n
}

// IsUnit reports whether the region is a single grid point.
func (r Region) IsUnit() bool {
	for i := range r.Lo {
		if r.Lo[i] != r.Hi[i] {
			return false
		}
	}
	return true
}

// AllCorners enumerates the region's 2^d corner grid points (deduplicated
// along degenerate dimensions). With a cost model monotone along each axis,
// plan costs over the whole region are bracketed by the corners, so
// corner checks are the conservative proxy for Def. 2's "at all points".
func (r Region) AllCorners() []GridPoint {
	d := len(r.Lo)
	out := make([]GridPoint, 0, 1<<uint(min(d, 20)))
	g := make(GridPoint, d)
	var rec func(i int)
	rec = func(i int) {
		if i == d {
			out = append(out, g.Clone())
			return
		}
		g[i] = r.Lo[i]
		rec(i + 1)
		if r.Hi[i] != r.Lo[i] {
			g[i] = r.Hi[i]
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// Center returns the region's central grid point (floor midpoint).
func (r Region) Center() GridPoint {
	c := make(GridPoint, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Clone deep-copies the region.
func (r Region) Clone() Region {
	return Region{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

func (r Region) String() string {
	return fmt.Sprintf("[%v..%v]", []int(r.Lo), []int(r.Hi))
}

// Split partitions r into up to 2^d sub-regions at grid point p (§4.3: "the
// point with the highest weight as the partition point to divide the space
// into 2^d sub-spaces"). Along each dimension, the low half is [Lo, p-1] and
// the high half is [p, Hi]; degenerate halves are dropped, so corner or edge
// partition points produce fewer than 2^d parts. Split never returns r
// itself unless p == Lo (in which case the caller should pick a different
// point or stop).
func (r Region) Split(p GridPoint) []Region {
	d := len(r.Lo)
	type half struct{ lo, hi int }
	halves := make([][]half, d)
	for i := 0; i < d; i++ {
		var hs []half
		if p[i] > r.Lo[i] {
			hs = append(hs, half{r.Lo[i], p[i] - 1})
		}
		if p[i] <= r.Hi[i] {
			lo := p[i]
			if lo < r.Lo[i] {
				lo = r.Lo[i]
			}
			hs = append(hs, half{lo, r.Hi[i]})
		}
		if len(hs) == 0 {
			hs = append(hs, half{r.Lo[i], r.Hi[i]})
		}
		halves[i] = hs
	}
	var out []Region
	idx := make([]int, d)
	for {
		lo := make(GridPoint, d)
		hi := make(GridPoint, d)
		for i := 0; i < d; i++ {
			lo[i] = halves[i][idx[i]].lo
			hi[i] = halves[i][idx[i]].hi
		}
		out = append(out, Region{Lo: lo, Hi: hi})
		// Odometer increment.
		i := 0
		for ; i < d; i++ {
			idx[i]++
			if idx[i] < len(halves[i]) {
				break
			}
			idx[i] = 0
		}
		if i == d {
			break
		}
	}
	return out
}

// ForEach invokes fn for every grid point in the region, dimension 0 varying
// fastest (ordinal order, over a full region). fn may return false to stop early; ForEach reports whether it ran to
// completion.
func (r Region) ForEach(fn func(GridPoint) bool) bool {
	d := len(r.Lo)
	g := r.Lo.Clone()
	for {
		if !fn(g.Clone()) {
			return false
		}
		i := 0
		for ; i < d; i++ {
			g[i]++
			if g[i] <= r.Hi[i] {
				break
			}
			g[i] = r.Lo[i]
		}
		if i == d {
			return true
		}
	}
}
