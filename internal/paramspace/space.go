// Package paramspace implements the paper's multi-dimensional parameter
// space (§2.2): a discretized box around the optimizer's single-point
// statistic estimates, one dimension per uncertain statistic (operator
// selectivity or stream input rate). Algorithm 1 derives the box bounds from
// an uncertainty level U with unit step Δ = 0.1. A grid point is a coordinate
// vector (GridPoint), and its Space.Ordinal — a mixed-radix number over
// Steps — is the compile half's one name for it: §4.2's weight map is a
// slice indexed by the ordinal, and the random-sampling baseline keys its
// sample set by it.
package paramspace

import (
	"fmt"
	"math"
)

// UnitStep is Algorithm 1's Δ: each uncertainty level widens a dimension by
// ±10% of its estimate.
const UnitStep = 0.1

// DimKind says which statistic a dimension models.
type DimKind int

// Dimension kinds.
const (
	// Selectivity dimensions model an operator's selectivity.
	Selectivity DimKind = iota
	// Rate dimensions model a stream's input rate in tuples/second.
	Rate
)

func (k DimKind) String() string {
	switch k {
	case Selectivity:
		return "selectivity"
	case Rate:
		return "rate"
	default:
		return fmt.Sprintf("DimKind(%d)", int(k))
	}
}

// Dim is one dimension of the parameter space.
type Dim struct {
	// Kind is the modeled statistic.
	Kind DimKind
	// Op is the operator ID for Selectivity dims (-1 otherwise).
	Op int
	// Stream is the stream name for Rate dims ("" otherwise).
	Stream string
	// Base is the single-point estimate E[i].
	Base float64
	// Uncertainty is the level U assigned to the estimate.
	Uncertainty int
	// Lo, Hi are Algorithm 1's bounds: Base·(1 ∓ Δ·U).
	Lo, Hi float64
}

// SelDim declares a selectivity dimension for operator op with estimate base
// and uncertainty level u, applying Algorithm 1. Selectivity bounds are
// clamped into (0, 1].
func SelDim(op int, base float64, u int) Dim {
	d := Dim{Kind: Selectivity, Op: op, Stream: "", Base: base, Uncertainty: u}
	d.Lo = base * (1 - UnitStep*float64(u))
	d.Hi = base * (1 + UnitStep*float64(u))
	if d.Lo < 1e-4 {
		d.Lo = 1e-4
	}
	if d.Hi > 1 {
		d.Hi = 1
	}
	if d.Hi <= d.Lo {
		d.Hi = d.Lo + 1e-6
	}
	return d
}

// RateDim declares an input-rate dimension for a stream with estimate base
// (tuples/sec) and uncertainty level u, applying Algorithm 1.
func RateDim(streamName string, base float64, u int) Dim {
	d := Dim{Kind: Rate, Op: -1, Stream: streamName, Base: base, Uncertainty: u}
	d.Lo = base * (1 - UnitStep*float64(u))
	d.Hi = base * (1 + UnitStep*float64(u))
	if d.Lo < 1e-6 {
		d.Lo = 1e-6
	}
	if d.Hi <= d.Lo {
		d.Hi = d.Lo + 1e-6
	}
	return d
}

// Space is the discretized parameter space S: a grid with Steps points per
// dimension spanning each dimension's [Lo, Hi].
type Space struct {
	Dims []Dim
	// Steps is the number of grid points per dimension (≥ 2).
	Steps int
}

// DefaultSteps is the per-dimension discretization used throughout the
// experiments (a 16-unit axis, as in the paper's Figure 8).
const DefaultSteps = 16

// New builds a Space over dims with the given per-dimension step count.
func New(dims []Dim, steps int) *Space {
	if steps < 2 {
		steps = 2
	}
	return &Space{Dims: dims, Steps: steps}
}

// D returns the dimensionality.
func (s *Space) D() int { return len(s.Dims) }

// NumPoints returns the total number of grid points (Steps^d).
func (s *Space) NumPoints() int {
	n := 1
	for range s.Dims {
		n *= s.Steps
	}
	return n
}

// Value maps grid coordinate k on dimension i to the statistic value.
func (s *Space) Value(i, k int) float64 {
	d := s.Dims[i]
	if s.Steps == 1 {
		return d.Lo
	}
	return d.Lo + (d.Hi-d.Lo)*float64(k)/float64(s.Steps-1)
}

// GridPoint is an integer coordinate vector into the grid.
type GridPoint []int

// Point is the vector of actual statistic values at a grid point — the
// paper's pnt = <d1, ..., dn>.
type Point []float64

// At converts grid coordinates to statistic values.
func (s *Space) At(g GridPoint) Point {
	p := make(Point, len(g))
	for i, k := range g {
		p[i] = s.Value(i, k)
	}
	return p
}

// Ordinal returns g's index among the space's NumPoints() grid points: a
// mixed-radix number over Steps with dimension 0 least significant, so
// FullRegion().ForEach visits the points in ordinal order.
func (s *Space) Ordinal(g GridPoint) int {
	n := 0
	for i := len(g) - 1; i >= 0; i-- {
		n = n*s.Steps + g[i]
	}
	return n
}

// Clone copies g.
func (g GridPoint) Clone() GridPoint { return append(GridPoint(nil), g...) }

// Equal reports coordinate equality.
func (g GridPoint) Equal(h GridPoint) bool {
	if len(g) != len(h) {
		return false
	}
	for i := range g {
		if g[i] != h[i] {
			return false
		}
	}
	return true
}

// Dist returns the Manhattan distance between grid points (the pluggable
// distance of §4.2; Manhattan keeps weights integral-friendly).
func (g GridPoint) Dist(h GridPoint) float64 {
	sum := 0.0
	for i := range g {
		sum += math.Abs(float64(g[i] - h[i]))
	}
	return sum
}

// FullRegion returns the region covering the whole space.
func (s *Space) FullRegion() Region {
	lo := make(GridPoint, s.D())
	hi := make(GridPoint, s.D())
	for i := range hi {
		hi[i] = s.Steps - 1
	}
	return Region{Lo: lo, Hi: hi}
}

// Center returns the grid point closest to the single-point estimates.
func (s *Space) Center() GridPoint {
	g := make(GridPoint, s.D())
	for i, d := range s.Dims {
		g[i] = s.Nearest(i, d.Base)
	}
	return g
}

// Nearest returns the grid coordinate on dimension i nearest to value v,
// clamped into [0, Steps-1]: a value below Lo (or NaN) maps to 0, one above
// Hi to Steps-1, and every value of a degenerate dimension (Hi == Lo) to 0.
// The clamp is on the coordinate, so no input can index past the grid.
func (s *Space) Nearest(i int, v float64) int {
	d := &s.Dims[i]
	if d.Hi == d.Lo {
		return 0
	}
	x := (v - d.Lo) / (d.Hi - d.Lo) * float64(s.Steps-1)
	switch {
	case !(x > 0):
		return 0
	case x >= float64(s.Steps-1):
		return s.Steps - 1
	}
	// math.Round(x), half away from zero, in a form the compiler inlines
	// into the per-batch classifier: x - trunc(x) is exact.
	k := int(x)
	if x-float64(k) >= 0.5 {
		k++
	}
	return k
}
