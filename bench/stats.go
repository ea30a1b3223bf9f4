package main

import "sort"

// median returns the middle value of v (the mean of the two middle values
// for an even count), or 0 for an empty slice. v is not modified.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of v by linear interpolation
// between the two nearest order statistics, or 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// minMax returns the smallest and largest value of a non-empty slice.
func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// relSpread is the interquartile range of v as a share of its median — the
// run-to-run spread the comparer holds against a metric's bound.
func relSpread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	d := quantile(v, 0.75) - quantile(v, 0.25)
	if m < 0 {
		m = -m
	}
	return d / m
}
