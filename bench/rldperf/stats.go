package main

import (
	"errors"
	"math"
	"sort"
)

// errTooFewSamples reports a percentile the sample cannot support.
var errTooFewSamples = errors.New("rldperf: fewer than ten samples beyond the percentile")

// percentile returns the p-th percentile (50 < p < 100) of xs by nearest
// rank. It refuses a percentile with fewer than ten samples beyond it: a
// p99 of 300 samples is three values, and reporting it would put noise in a
// table that reads like a measurement.
func percentile(xs []float64, p float64) (float64, error) {
	if float64(len(xs))*(100-p)/100 < 10 {
		return 0, errTooFewSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[rank], nil
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs with linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the phase estimator: every phase is cut into segments of
// identical work, and the phase's value is the median over its segments.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// iqrShare is the driver's spread: the distance between the first and third
// quartile (Python's statistics.quantiles(n=4), the exclusive method) as a
// share of the median.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / median(s)
}
