// Package decision computes the paper's optimal scaling decisions from a
// predicted arrival intensity: the HP-constrained quantile solution
// (eq. 3), the RT-constrained solution (eq. 5), the cost-constrained
// solution (eq. 7), and the κ planning threshold (eq. 8).
//
// All three formulations are separable per upcoming query. Under a
// deterministic pending time τ every one is exact. The HP solution and κ
// read unit-rate Gamma quantiles, which depend only on the query index
// and the target, from a bounded process-wide table (gammatable.go). The
// RT and cost solutions find the root of a closed-form integral of the
// query's arrival CDF over the Horizon (exact.go). Under a random pending
// time the sample-based solvers (solve.go: Algorithm 3's sort-and-search
// for RT, the sorted sweep for cost, the quantile for HP) take Monte
// Carlo samples of one query's arrival epoch ξ_i and pending time τ_i
// and return one creation time.
package decision

import (
	"fmt"
	"math/rand"
	"sort"

	"robustscaler/internal/nhpp"
	"robustscaler/internal/stats"
)

// Horizon caches the cumulative integrated intensity Λ(t0, ·) on a regular
// grid so arrival epochs can be sampled in O(log n) per draw via the
// time-rescaling identity ξ_i = Λ⁻¹(Gamma(i, 1)). A planning round builds
// one Horizon and reads every query's quantiles or exact rt/cost
// solutions off it. A Horizon grows its grid on demand and so is not safe
// for concurrent use.
type Horizon struct {
	in    nhpp.Intensity
	start float64
	step  float64
	cum   []float64 // cum[k] = Λ(start, start + k·step); cum[0] = 0
	max   int       // grid-cell cap for Ensure
	cdf   cdfWindow // workspace of the exact rt/cost solvers (exact.go)
}

// NewHorizon creates a horizon anchored at start with the given grid step.
// maxCells caps the look-ahead (maxCells·step seconds); ≤0 selects a
// generous default.
func NewHorizon(in nhpp.Intensity, start, step float64, maxCells int) *Horizon {
	if step <= 0 {
		panic(fmt.Sprintf("decision: non-positive horizon step %g", step))
	}
	if maxCells <= 0 {
		maxCells = 4_000_000
	}
	return &Horizon{in: in, start: start, step: step, cum: []float64{0}, max: maxCells}
}

// ensure extends the cumulative grid until it covers mass, returning false
// when the cap is hit first (e.g. a zero-rate tail).
func (h *Horizon) ensure(mass float64) bool {
	for h.cum[len(h.cum)-1] < mass {
		if len(h.cum) > h.max {
			return false
		}
		k := len(h.cum) - 1
		a := h.start + float64(k)*h.step
		h.cum = append(h.cum, h.cum[k]+h.in.Integral(a, a+h.step))
	}
	return true
}

// Invert returns the time t with Λ(start, t) = mass.
func (h *Horizon) Invert(mass float64) (float64, bool) {
	if mass <= 0 {
		return h.start, true
	}
	if !h.ensure(mass) {
		return 0, false
	}
	// Binary search for the containing cell, then linear interpolation
	// (the intensity is treated as constant within a cell).
	k := sort.SearchFloat64s(h.cum, mass)
	lo := h.cum[k-1]
	hi := h.cum[k]
	t := h.start + float64(k-1)*h.step
	if hi > lo {
		t += h.step * (mass - lo) / (hi - lo)
	} else {
		t += h.step
	}
	return t, true
}

// Mass returns Λ(start, t) for t ≥ start, extending the grid as needed.
func (h *Horizon) Mass(t float64) float64 {
	if t <= h.start {
		return 0
	}
	k := int((t - h.start) / h.step)
	for len(h.cum) <= k+1 {
		if len(h.cum) > h.max {
			break
		}
		j := len(h.cum) - 1
		a := h.start + float64(j)*h.step
		h.cum = append(h.cum, h.cum[j]+h.in.Integral(a, a+h.step))
	}
	if k+1 >= len(h.cum) {
		return h.cum[len(h.cum)-1]
	}
	frac := (t - (h.start + float64(k)*h.step)) / h.step
	return h.cum[k] + (h.cum[k+1]-h.cum[k])*frac
}

// SampleArrival draws one Monte Carlo realization of the i-th upcoming
// arrival epoch after the horizon start (i ≥ 1): Λ⁻¹ of a Gamma(i,1)
// variate. ok is false if the intensity mass runs out first.
func (h *Horizon) SampleArrival(rng *rand.Rand, i int) (float64, bool) {
	if i < 1 {
		panic(fmt.Sprintf("decision: SampleArrival i=%d < 1", i))
	}
	g := stats.Gamma{Shape: float64(i), Scale: 1}.Sample(rng)
	return h.Invert(g)
}

// QuantileArrival returns the exact p-quantile of the i-th upcoming
// arrival epoch: Λ⁻¹(Gamma_i⁻¹(p)). Used by the fast path of the
// HP-constrained solution when the pending time is deterministic.
//
// Gamma_i⁻¹(p) is read from the process-wide quantile table, which fills
// p's row up to i on first use and serves later reads without locking or
// allocating. The table holds at most 16 distinct p and shapes up to
// 16,384 (2 MiB); any other (i, p) is computed directly, with the same
// bit-identical result.
func (h *Horizon) QuantileArrival(i int, p float64) (float64, bool) {
	if i < 1 {
		panic(fmt.Sprintf("decision: QuantileArrival i=%d < 1", i))
	}
	return h.Invert(gammaQuantiles.quantile(i, p))
}
