package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of an ascending sample
// by linear interpolation between order statistics, the same rule as
// Python's statistics.quantiles(method="inclusive"). An empty sample
// has no quantile; callers check length first.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentiles are the candidates summarize chooses its tail from.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999}

// highestSupported returns the highest candidate percentile that still
// has at least ten samples beyond it in a sample of n — the guide's
// rule for which tail a sample can support. Below 20 samples not even
// the median qualifies and 0.5 is returned regardless.
func highestSupported(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 { // 100·(1−0.9) is 9.999…98 in floating point
			best = p
		}
	}
	return best
}

// summary is what every timing is reported as: the sample count, the
// median, the highest supported percentile (and which one it is), plus
// p999 as a diagnostic whatever the count.
type summary struct {
	N     int
	P50   float64
	TailP float64
	Tail  float64
	P999  float64
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	tp := highestSupported(len(xs))
	return summary{N: len(xs), P50: quantile(xs, 0.5), TailP: tp, Tail: quantile(xs, tp), P999: quantile(xs, 0.999)}
}

// pct sorts a copy of xs and returns its p-quantile; 0 for no samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, p)
}

func median(xs []float64) float64 { return pct(xs, 0.5) }
