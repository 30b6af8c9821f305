package decision

import (
	"fmt"
	"math/rand"
	"sort"

	"robustscaler/internal/stats"
)

// kappaCap bounds the κ search; a threshold this deep means the pending
// time spans millions of expected arrivals and planning that far ahead is
// pointless.
const kappaCap = 1 << 20

// Kappa computes the planning threshold κ of eq. 8:
//
//	κ = max{ i ≥ 1 : α-quantile of (γ_i/λ̄ − τ_i) < 0 },
//
// with γ_i ~ Gamma(i, 1) independent of τ_i, λ̄ an upper bound on the
// intensity, and 1−α the target hitting probability. Queries within the
// next κ arrivals cannot reach the target HP even with immediate creation,
// so the sequential scheme always plans at least κ+1 arrivals ahead.
//
// For a deterministic pending time the condition is evaluated exactly via
// the Gamma quantile; otherwise by Monte Carlo with mcSamples draws of τ.
// κ = 0 when even the first upcoming query can achieve the target.
//
// The exact path reads the quantiles that QuantileArrival has already
// tabled for α and computes the rest directly without tabling them: the
// search's doubling steps reach shapes far beyond any plan (up to
// kappaCap), where filling the table would cost O(κ) inversions instead
// of O(log κ). Both routes give bit-identical values.
func Kappa(lambdaBar float64, tau stats.Dist, alpha float64, rng *rand.Rand, mcSamples int) int {
	if lambdaBar <= 0 {
		return 0 // no traffic: any HP target is attainable
	}
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("decision: Kappa alpha=%g outside (0,1)", alpha))
	}
	if det, ok := tau.(stats.Deterministic); ok {
		return kappaDeterministic(lambdaBar, det.Value, alpha)
	}
	if mcSamples <= 0 {
		mcSamples = 1000
	}
	tauSamples := make([]float64, mcSamples)
	for r := range tauSamples {
		tauSamples[r] = tau.Sample(rng)
	}
	sort.Float64s(tauSamples)
	// The α-quantile of γ_i/λ̄ − τ_i is increasing in i; find the last i
	// where it is negative.
	cond := func(i int) bool { // true while quantile < 0
		g := stats.Gamma{Shape: float64(i), Scale: 1}
		diff := make([]float64, mcSamples)
		for r := range diff {
			diff[r] = g.Sample(rng)/lambdaBar - tauSamples[r]
		}
		sort.Float64s(diff)
		return stats.QuantileSorted(diff, alpha) < 0
	}
	return lastTrue(cond)
}

func kappaDeterministic(lambdaBar, tauVal, alpha float64) int {
	if tauVal <= 0 {
		return 0
	}
	cond := func(i int) bool {
		return gammaQuantiles.peek(i, alpha)/lambdaBar < tauVal
	}
	return lastTrue(cond)
}

// lastTrue returns the largest i ≥ 1 with cond(i) true, assuming cond is
// monotone (true then false), or 0 when cond(1) is already false. It
// doubles to bracket the boundary then binary-searches, so the cost is
// O(log κ) condition evaluations.
func lastTrue(cond func(int) bool) int {
	if !cond(1) {
		return 0
	}
	lo := 1
	hi := 2
	for cond(hi) {
		lo = hi
		hi *= 2
		if hi > kappaCap {
			return kappaCap
		}
	}
	// Invariant: cond(lo) true, cond(hi) false.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if cond(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
