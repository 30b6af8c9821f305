package decision

import (
	"fmt"
	"math"
	"sort"

	"robustscaler/internal/stats"
)

// Exact rt and cost solutions under a deterministic pending time τ.
//
// With τ fixed, the expected wait (eq. 5) and the expected idle time
// (eq. 7) of query i are integrals of F_i(t) = P(i, Λ(start, t)), the CDF
// of its arrival epoch ξ_i = Λ⁻¹(Gamma(i, 1)):
//
//	E_i(x) = E[(τ − (ξ_i − x)₊)₊] = ∫_x^{x+τ} F_i,
//	C_i(x) = E[(ξ_i − τ − x)₊]    = ∫_{x+τ}^∞ (1 − F_i).
//
// The Horizon treats Λ as linear inside each grid cell (Invert and Mass
// interpolate it so), which makes ∫ F_i over any part of a cell closed
// form: with H(u) = ∫_0^u P(i, v) dv = (u − i)·P(i, u) + uⁱe^{−u}/Γ(i), a
// span of length s over which Λ rises from u₀ to u₁ contributes
// s·(H(u₁) − H(u₀))/(u₁ − u₀). One regularized incomplete gamma
// evaluation per point replaces the thousands of Gamma draws a Monte
// Carlo estimate takes, and the answer carries no sampling noise.

// saturationQuantile fixes the latest creation time the exact solvers
// return: Λ⁻¹(Gamma_i⁻¹(0.999)), the time by which query i has arrived
// with probability 0.999. An rt budget d ≥ τ constrains nothing, and a
// cost budget b ≤ 0 cannot be met at any finite time; the rt plan then
// waits until this point (the query almost surely arrives
// first and triggers reactive creation) and the cost plan creates τ
// before it. Every rt root is capped at the point and every cost root
// at the point less τ, which keeps both solutions monotone in their
// budgets. 0.999 is the quantile that the maximum of 1,000 Monte Carlo
// draws estimates, so plans keep the saturation point a 1,000-sample
// solver had.
const saturationQuantile = 0.999

// rootTol is the absolute accuracy, in seconds, of the exact solvers'
// roots. They solve for the offset from the horizon start, whose float
// spacing is fine enough for it; an absolute time near 1.7e9 s is
// resolved only to ~2.4e-7 s.
const rootTol = 1e-10

// cdfWindow holds, for one query index i, the integral of F_i across the
// horizon cells where F_i is neither 0 nor 1 to working precision: the
// knots k0..k1, with F_i taken as 0 before knot k0 and as 1 from knot k1
// on. The bounds sit 12√i below and 12√i + 40 above the mean mass i,
// where the Gamma(i, 1) tails are below e^{-40}.
type cdfWindow struct {
	a, lgA float64   // the shape i and ln Γ(i)
	k0, k1 int       // the window's first and last knot
	p, hv  []float64 // P(i, ·) and H at knots k0..k1
	cum    []float64 // cum[j] = ∫ F_i from knot k0 to knot k0+j
}

// at returns P(i, u) and H(u).
func (w *cdfWindow) at(u float64) (p, hv float64) {
	if u <= 0 {
		return 0, 0
	}
	p = stats.RegIncGammaP(w.a, u)
	return p, (u-w.a)*p + math.Exp(w.a*math.Log(u)-u-w.lgA)
}

// span returns ∫ F_i over a span of length s across which Λ rises
// linearly from u0 to u1, given P and H at both ends. When Λ barely moves
// the difference quotient of H cancels catastrophically; F_i is then
// nearly linear over the span and Simpson's rule (one more evaluation, at
// the midpoint) is exact to far below rootTol.
func (w *cdfWindow) span(s, u0, u1, p0, p1, h0, h1 float64) float64 {
	du := u1 - u0
	if du > 1e-3*math.Max(1, u1) {
		return s * (h1 - h0) / du
	}
	pm, _ := w.at(u0 + du/2)
	return s * (p0 + 4*pm + p1) / 6
}

// reset fills the window for query index i. It returns false when the
// horizon's intensity mass runs out before the window's upper bound.
func (w *cdfWindow) reset(h *Horizon, i int) bool {
	w.a = float64(i)
	w.lgA, _ = math.Lgamma(w.a)
	sd := math.Sqrt(w.a)
	uLo := math.Max(0, w.a-12*sd)
	uHi := w.a + 12*sd + 40
	if !h.ensure(uHi) {
		return false
	}
	w.k0 = sort.SearchFloat64s(h.cum, uLo) // first knot at or past uLo
	if w.k0 > 0 {
		w.k0-- // the last knot before it
	}
	w.k1 = sort.SearchFloat64s(h.cum, uHi)
	n := w.k1 - w.k0 + 1
	w.p, w.hv, w.cum = w.p[:0], w.hv[:0], w.cum[:0]
	for k := w.k0; k <= w.k1; k++ {
		p, hv := w.at(h.cum[k])
		w.p, w.hv = append(w.p, p), append(w.hv, hv)
	}
	w.cum = append(w.cum, 0)
	for j := 1; j < n; j++ {
		k := w.k0 + j
		w.cum = append(w.cum, w.cum[j-1]+w.span(h.step, h.cum[k-1], h.cum[k], w.p[j-1], w.p[j], w.hv[j-1], w.hv[j]))
	}
	return true
}

// integral returns G(o) = ∫ F_i from knot k0 to offset o (o counted from
// the horizon start) and F_i at o.
func (w *cdfWindow) integral(h *Horizon, o float64) (g, f float64) {
	k := int(math.Floor(o / h.step))
	switch {
	case k < w.k0:
		return 0, 0
	case k >= w.k1:
		return w.cum[len(w.cum)-1] + (o - float64(w.k1)*h.step), 1
	}
	j := k - w.k0
	s := o - float64(k)*h.step
	u0 := h.cum[k]
	u := u0 + (h.cum[k+1]-u0)*s/h.step
	p, hv := w.at(u)
	return w.cum[j] + w.span(s, u0, u, w.p[j], p, w.hv[j], hv), p
}

// wait returns E_i at offset x and its slope F_i(x+τ) − F_i(x).
func (w *cdfWindow) wait(h *Horizon, x, tau float64) (e, slope float64) {
	g1, f1 := w.integral(h, x+tau)
	g0, f0 := w.integral(h, x)
	return g1 - g0, f1 - f0
}

// idle returns C_i at offset x and its slope −(1 − F_i(x+τ)).
func (w *cdfWindow) idle(h *Horizon, x, tau float64) (c, slope float64) {
	y := x + tau
	g, f := w.integral(h, y)
	end := float64(w.k1) * h.step
	return (end - y) - (w.cum[len(w.cum)-1] - g), f - 1
}

// SolveRTExact returns the latest creation time x of the i-th upcoming
// query whose expected wait E_i(x) = ∫_x^{x+τ} F_i stays within the
// budget d (eq. 5 under a deterministic pending time τ), capped at the
// query's 0.999 arrival quantile (see saturationQuantile). A budget d ≤ 0 returns the latest time with
// zero expected wait under the window's truncation. ok is false when the
// intensity mass runs out first.
func SolveRTExact(h *Horizon, i int, tau, d float64) (x float64, ok bool) {
	if i < 1 {
		panic(fmt.Sprintf("decision: SolveRTExact i=%d < 1", i))
	}
	w := &h.cdf
	if !w.reset(h, i) {
		return 0, false
	}
	sat, _ := h.QuantileArrival(i, saturationQuantile) // below the window's mass, so covered
	hi := sat - h.start
	lo := math.Min(float64(w.k0)*h.step-tau, hi) // E_i = 0 up to here
	if d <= 0 {
		return h.start + lo, true
	}
	if e, _ := w.wait(h, hi, tau); d >= tau || e <= d {
		return sat, true
	}
	lo, _ = bracketRoot(func(x float64) (float64, float64) {
		e, slope := w.wait(h, x, tau)
		return e - d, slope
	}, lo, hi)
	return h.start + lo, true
}

// SolveCostExact returns the earliest creation time x ≥ the horizon
// start of the i-th upcoming query whose expected idle time
// C_i(x) = ∫_{x+τ}^∞ (1 − F_i) stays within the budget b (eq. 7 under a
// deterministic pending time τ), capped at the query's 0.999 arrival
// quantile less τ. ok is false when the intensity mass runs out first.
func SolveCostExact(h *Horizon, i int, tau, b float64) (x float64, ok bool) {
	if i < 1 {
		panic(fmt.Sprintf("decision: SolveCostExact i=%d < 1", i))
	}
	w := &h.cdf
	if !w.reset(h, i) {
		return 0, false
	}
	sat, _ := h.QuantileArrival(i, saturationQuantile)
	hi := math.Max(0, sat-tau-h.start)
	if c, _ := w.idle(h, 0, tau); c <= b {
		return h.start, true
	}
	if c, _ := w.idle(h, hi, tau); c > b {
		return h.start + hi, true
	}
	_, hi = bracketRoot(func(x float64) (float64, float64) {
		c, slope := w.idle(h, x, tau)
		return b - c, -slope
	}, 0, hi)
	return h.start + hi, true
}

// bracketRoot narrows [lo, hi] around the root of a non-decreasing f
// with f(lo) ≤ 0 < f(hi) until hi − lo ≤ rootTol. f returns its value
// and slope; Newton steps are taken while they stay inside the bracket,
// bisection otherwise. Once a Newton step falls below the tolerance, one
// probe just past the root closes the bracket.
func bracketRoot(f func(x float64) (v, slope float64), lo, hi float64) (float64, float64) {
	x := lo + (hi-lo)/2
	for it := 0; it < 200 && hi-lo > rootTol; it++ {
		v, slope := f(x)
		if v <= 0 {
			lo = x
		} else {
			hi = x
		}
		next := x - v/slope
		if slope > 0 && math.Abs(next-x) < rootTol/2 {
			if v <= 0 {
				next = x + rootTol/2
			} else {
				next = x - rootTol/2
			}
		}
		if !(next > lo && next < hi) {
			next = lo + (hi-lo)/2
			if next <= lo || next >= hi {
				break // no float left between the ends
			}
		}
		x = next
	}
	return lo, hi
}
