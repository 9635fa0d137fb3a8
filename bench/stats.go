package main

import (
	"math"
	"sort"
)

// Measurement discipline: a reported timing is the median over equal
// segments of the per-segment value, because this sandbox stalls for
// 100 ms and more at random and a whole-run mean or raw tail moves with
// the stall, not with the code.

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maxSegments is the segment count the discipline aims for.
const maxSegments = 12

// segmentedQuantile splits time-ordered samples into as many equal
// segments (at most maxSegments) as leave at least ten samples beyond the
// quantile in each, and returns the median of the per-segment quantiles.
func segmentedQuantile(xs []float64, q float64) float64 {
	tail := math.Min(q, 1-q)
	n := int(float64(len(xs)) * tail / 10)
	if n > maxSegments {
		n = maxSegments
	}
	if n < 1 {
		n = 1
	}
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(xs)/n, (i+1)*len(xs)/n
		if hi > lo {
			per = append(per, quantile(xs[lo:hi], q))
		}
	}
	return median(per)
}

// logLogSlope is the least-squares slope of log y on log x: the fitted
// exponent of a cell over the sweep's sizes.
func logLogSlope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0.0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx, sy, sxx, sxy, n = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly, n+1
	}
	den := n*sxx - sx*sx
	if n < 2 || den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
