package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of tail percentiles a report may name, highest
// first.
var tailLadder = []float64{99, 95, 90, 75}

// tailPercentile picks the highest percentile of tailLadder that still has
// at least ten samples beyond it — with n samples, p is supportable when
// n*(1-p/100) >= 10 — and falls back to the median when none is. A p95
// over 40 samples is the second-worst sample, not a percentile; a tail is
// only named when the data can carry it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}
