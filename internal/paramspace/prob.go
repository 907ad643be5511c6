package paramspace

import "math"

// OccurrenceModel assigns each region a probability of containing the actual
// runtime statistics (§5.2, "the probability of occurrence heuristic"). The
// paper models each dimension with an independent normal centered on the
// single-point estimate; the standard deviation derives from the uncertainty
// level — we set σ so the space half-width spans HalfWidthSigmas standard
// deviations (Example 5 uses µ=0.5, σ=0.2 on a [0.1, 0.9] axis, i.e. 2σ).
type OccurrenceModel struct {
	space *Space
	// mu and sigma per dimension.
	mu, sigma []float64
}

// HalfWidthSigmas is how many standard deviations fit in half the space
// width (2 → the space covers ≈95% of the probability mass).
const HalfWidthSigmas = 2.0

// NewOccurrenceModel derives the per-dimension normal model from the space.
func NewOccurrenceModel(s *Space) *OccurrenceModel {
	m := &OccurrenceModel{space: s}
	m.mu = make([]float64, s.D())
	m.sigma = make([]float64, s.D())
	for i, d := range s.Dims {
		m.mu[i] = d.Base
		half := (d.Hi - d.Lo) / 2
		if half <= 0 {
			half = 1e-9
		}
		m.sigma[i] = half / HalfWidthSigmas
	}
	return m
}

// stdNormalCDF is Φ(x).
func stdNormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// DimProb returns the probability that dimension i's true value falls in the
// half-open value interval [lo, hi).
func (m *OccurrenceModel) DimProb(i int, lo, hi float64) float64 {
	s := m.sigma[i]
	if s <= 0 {
		if lo <= m.mu[i] && m.mu[i] < hi {
			return 1
		}
		return 0
	}
	return stdNormalCDF((hi-m.mu[i])/s) - stdNormalCDF((lo-m.mu[i])/s)
}

// cellBounds returns the value interval that grid coordinate k covers on
// dimension i: cell k owns [v(k)-h/2, v(k)+h/2) where h is the grid pitch,
// with the first and last cells extended to ±∞ so the whole axis mass is
// attributed to the space (Example 4 normalizes this way: plan weights over
// the full space sum to ≈1).
func (m *OccurrenceModel) cellBounds(i, k int) (lo, hi float64) {
	s := m.space
	pitch := 0.0
	if s.Steps > 1 {
		pitch = (s.Dims[i].Hi - s.Dims[i].Lo) / float64(s.Steps-1)
	}
	v := s.Value(i, k)
	lo, hi = v-pitch/2, v+pitch/2
	if k == 0 {
		lo = math.Inf(-1)
	}
	if k == s.Steps-1 {
		hi = math.Inf(1)
	}
	return lo, hi
}

// RegionProb returns the probability mass of all grid cells in the region
// (a unit region gives one cell's mass). Dimensions are independent per §5.2
// ("the correlation between dimensions is zero"), so the model is a product
// of per-dimension masses over a box and it factorizes:
// Pr(region) = Π_i Pr(dim i in [lo_i..hi_i]).
func (m *OccurrenceModel) RegionProb(r Region) float64 {
	p := 1.0
	for i := range r.Lo {
		lo, _ := m.cellBounds(i, r.Lo[i])
		_, hi := m.cellBounds(i, r.Hi[i])
		p *= m.DimProb(i, lo, hi)
	}
	return p
}

// Mu returns the mean of dimension i.
func (m *OccurrenceModel) Mu(i int) float64 { return m.mu[i] }

// Sigma returns the standard deviation of dimension i.
func (m *OccurrenceModel) Sigma(i int) float64 { return m.sigma[i] }
