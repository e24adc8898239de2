package main

import (
	"math"
	"slices"
)

// samples is an unordered list of measurements of one quantity.
type samples []float64

// pct returns the p-th percentile by the nearest-rank rule (p in
// (0, 100]); 0 for an empty sample.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	return sorted[nearestRank(p, len(sorted))-1]
}

func (s samples) median() float64 { return s.pct(50) }

// scale returns the samples multiplied by k, as for a change of unit.
func (s samples) scale(k float64) samples {
	out := make(samples, len(s))
	for i, v := range s {
		out[i] = v * k
	}
	return out
}

// nearestRank is the 1-based rank of the p-th percentile of n sorted
// values.
func nearestRank(p float64, n int) int {
	// The tolerance keeps p99.9 of 10000 at rank 9990 despite rounding.
	r := int(math.Ceil(p*float64(n)/100 - 1e-6))
	return min(max(r, 1), n)
}

// reportedPercentiles are the percentiles a timing may be reported at,
// highest first.
var reportedPercentiles = []float64{99.9, 99, 95, 90, 50}

// reportable says whether n samples have at least 10 beyond their p-th
// percentile, the fewest a reported percentile may rest on.
func reportable(p float64, n int) bool { return n-nearestRank(p, n) >= 10 }

// highestReportable returns the highest percentile of reportedPercentiles
// that n samples support, or false when even the median has too few.
func highestReportable(n int) (float64, bool) {
	for _, p := range reportedPercentiles {
		if reportable(p, n) {
			return p, true
		}
	}
	return 0, false
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
