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

// median returns the middle of xs (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailSamples is how many samples must lie beyond a reported high
// percentile for it to be worth reading at all.
const minTailSamples = 10

// highPercentile returns the highest percentile of xs that still has
// minTailSamples samples beyond it, and which percentile that is (as a
// share of the samples at or below it).  With too few samples it falls
// back to the median.
func highPercentile(xs []float64) (value, share float64) {
	n := len(xs)
	if n < 2*minTailSamples {
		return median(xs), 0.5
	}
	s := sorted(xs)
	i := n - 1 - minTailSamples
	return s[i], float64(i+1) / float64(n)
}

// blockSpread is (max − min) ÷ median of the block medians: how far the
// run drifted while it was being measured.
func blockSpread(blockMedians []float64) float64 {
	if len(blockMedians) < 2 {
		return 0
	}
	s := sorted(blockMedians)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / m
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// relDiff is (b − a) ÷ a, the share by which b is above a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}
