package decision

import (
	"math"
	"math/rand"
	"testing"

	"robustscaler/internal/nhpp"
	"robustscaler/internal/stats"
)

// exactTrace is one intensity the exact solvers are checked on, with the
// horizon grid step its plans use.
type exactTrace struct {
	name  string
	in    nhpp.Intensity
	start float64
	step  float64
}

// exactTraces covers a dense constant rate (a busy service's shape: F_i
// rises from 0 to 1 inside one or two grid cells), a sparse periodic
// model (F_i spans many cells), and a model with near-zero bins, whose
// flat cells take the Simpson branch.
func exactTraces() []exactTrace {
	periodic := make([]float64, 60)
	for k := range periodic {
		periodic[k] = math.Log(0.5 + 0.4*math.Sin(2*math.Pi*float64(k)/20))
	}
	gappy := make([]float64, 40)
	for k := range gappy {
		gappy[k] = math.Log(2)
		if k%4 == 1 {
			gappy[k] = -30 // ~1e-13 qps: Λ is flat across these bins
		}
	}
	return []exactTrace{
		{"dense", nhpp.Constant{Lambda: 40}, 1000, 2.5},
		{"periodic", nhpp.NewModel(1000, 60, periodic, 20), 1000, 15},
		{"gappy", nhpp.NewModel(1000, 5, gappy, 4), 1000, 1.25},
	}
}

// quadF integrates g(t) = P(i, Λ(start, t)) (or 1 − that, when tail is
// set) over [a, b] by composite Simpson's rule on each grid cell's part
// of the span separately, so F_i's kinks at the knots fall on panel
// edges. Panels are at most 0.002·max(1, √i) wide in mass, a 500th of
// the scale on which F_i bends. It reads the horizon only through Mass.
func quadF(h *Horizon, i int, a, b float64, tail bool) float64 {
	f := func(t float64) float64 {
		p := stats.RegIncGammaP(float64(i), h.Mass(t))
		if tail {
			return 1 - p
		}
		return p
	}
	width := 0.002 * math.Max(1, math.Sqrt(float64(i)))
	var sum float64
	for lo := a; lo < b; {
		hi := math.Min(b, h.start+(math.Floor((lo-h.start)/h.step)+1)*h.step)
		n := 2 * int(math.Ceil((h.Mass(hi)-h.Mass(lo))/(2*width)))
		if n < 2 {
			n = 2
		}
		dx := (hi - lo) / float64(n)
		s := f(lo) + f(hi)
		for k := 1; k < n; k++ {
			s += float64(2+2*(k%2)) * f(lo+float64(k)*dx)
		}
		sum += s * dx / 3
		lo = hi
	}
	return sum
}

// quadWait is E_i(x) by quadrature.
func quadWait(h *Horizon, i int, x, tau float64) float64 {
	return quadF(h, i, x, x+tau, false)
}

// quadIdle is C_i(x) by quadrature, cut where 1 − F_i < 1e-25.
func quadIdle(h *Horizon, i int, x, tau float64) float64 {
	a := float64(i)
	end, ok := h.Invert(a + 12*math.Sqrt(a) + 60)
	if !ok {
		panic("horizon too short for the idle quadrature")
	}
	return quadF(h, i, x+tau, end, true)
}

// TestExactRootsHitBudget checks each root against an independent
// quadrature of F_i: E_i(x) = d for rt and C_i(x) = b for cost, within
// 1e-9 s. The budgets are spread between the values at the ends of each
// solver's range, so every root is interior: neither capped at the
// 0.999 arrival quantile nor clamped at the start.
func TestExactRootsHitBudget(t *testing.T) {
	const tau = 13.0
	checkedCost := 0
	for _, tr := range exactTraces() {
		h := NewHorizon(tr.in, tr.start, tr.step, 0)
		for _, i := range []int{1, 2, 7, 50, 300} {
			sat, _ := h.QuantileArrival(i, saturationQuantile)
			eSat := quadWait(h, i, sat, tau)
			costRange := sat-tau > tr.start // else the cap is at or before the start
			var c0, cSat float64
			if costRange {
				c0, cSat = quadIdle(h, i, tr.start, tau), quadIdle(h, i, sat-tau, tau)
			}
			for _, frac := range []float64{0.05, 0.5, 0.95} {
				d := frac * eSat
				x, ok := SolveRTExact(h, i, tau, d)
				if !ok {
					t.Fatalf("%s i=%d: rt ran out of mass", tr.name, i)
				}
				if e := quadWait(h, i, x, tau); math.Abs(e-d) > 1e-9 {
					t.Errorf("%s i=%d d=%g: E(x=%.6f) = %.12f, off by %.3g", tr.name, i, d, x-tr.start, e, e-d)
				}
				if !costRange {
					continue
				}
				b := cSat + frac*(c0-cSat)
				if x, ok = SolveCostExact(h, i, tau, b); !ok {
					t.Fatalf("%s i=%d: cost ran out of mass", tr.name, i)
				}
				checkedCost++
				if c := quadIdle(h, i, x, tau); math.Abs(c-b) > 1e-9 {
					t.Errorf("%s i=%d b=%g: C(x=%.6f) = %.12f, off by %.3g", tr.name, i, b, x-tr.start, c, c-b)
				}
			}
		}
	}
	// At τ = 13 s the dense trace's queries all arrive within τ, so only
	// the sparse traces have cost roots to check.
	if checkedCost < 20 {
		t.Fatalf("only %d cost roots were checked", checkedCost)
	}
}

// TestExactMonotoneInBudget: a larger wait budget never plans an rt
// creation earlier, and a larger idle budget never plans a cost creation
// later — including across the d ≥ τ and b ≤ 0 edges.
func TestExactMonotoneInBudget(t *testing.T) {
	const tau = 13.0
	for _, tr := range exactTraces() {
		h := NewHorizon(tr.in, tr.start, tr.step, 0)
		for _, i := range []int{1, 20, 200} {
			prevRT, prevCost := math.Inf(-1), math.Inf(1)
			for b := -1.0; b <= 20; b += 0.25 {
				rt, _ := SolveRTExact(h, i, tau, b)
				cost, _ := SolveCostExact(h, i, tau, b)
				if rt < prevRT-rootTol {
					t.Fatalf("%s i=%d: rt x fell from %.9f to %.9f as d rose to %g", tr.name, i, prevRT, rt, b)
				}
				if cost > prevCost+rootTol {
					t.Fatalf("%s i=%d: cost x rose from %.9f to %.9f as b rose to %g", tr.name, i, prevCost, cost, b)
				}
				prevRT, prevCost = rt, cost
			}
		}
	}
}

// TestExactSaturationRule pins the deterministic rule for budgets that
// constrain nothing: rt with d ≥ τ creates at Λ⁻¹(Gamma_i⁻¹(0.999)), and
// cost with b ≤ 0 creates τ before it.
func TestExactSaturationRule(t *testing.T) {
	const tau = 13.0
	h := NewHorizon(nhpp.Constant{Lambda: 2}, 0, 0.25, 0)
	for _, i := range []int{1, 10, 100} {
		sat, _ := h.QuantileArrival(i, 0.999)
		for _, d := range []float64{tau, 2 * tau} {
			if x, _ := SolveRTExact(h, i, tau, d); x != sat {
				t.Fatalf("i=%d d=%g: rt x = %g, want the 0.999 arrival quantile %g", i, d, x, sat)
			}
		}
		for _, b := range []float64{0, -1} {
			if x, _ := SolveCostExact(h, i, tau, b); x != math.Max(0, sat-tau) {
				t.Fatalf("i=%d b=%g: cost x = %g, want %g", i, b, x, sat-tau)
			}
		}
	}
	// The constant-rate quantile in closed form: Gamma_1⁻¹(0.999) = −ln 0.001.
	if x, _ := SolveRTExact(h, 1, tau, tau); math.Abs(x+math.Log(0.001)/2) > h.step {
		t.Fatalf("i=1 saturation at %g, want ≈ %g", x, -math.Log(0.001)/2)
	}
}

// TestExactMatchesMonteCarlo pins the exact solvers against the sampled
// solvers they replace, at R = 20,000 draws: each exact root lies within
// five standard errors of the Monte Carlo root. The standard error is
// the sampled mean's (of the per-draw wait or idle time at the exact
// root) divided by the exact slope there.
func TestExactMatchesMonteCarlo(t *testing.T) {
	const (
		tau = 13.0
		r   = 20_000
	)
	rng := rand.New(rand.NewSource(11))
	xi := make([]float64, r)
	taus := make([]float64, r)
	for k := range taus {
		taus[k] = tau
	}
	for _, tr := range exactTraces() {
		h := NewHorizon(tr.in, tr.start, tr.step, 0)
		for _, i := range []int{1, 10, 100, 400} {
			for k := range xi {
				v, ok := h.SampleArrival(rng, i)
				if !ok {
					t.Fatal("sample ran out of mass")
				}
				xi[k] = v - tr.start
			}
			const d, b = 0.9, 0.9
			x, _ := SolveRTExact(h, i, tau, d)
			x -= tr.start
			w := &h.cdf
			w.reset(h, i)
			_, slope := w.wait(h, x, tau)
			se := sampleSD(xi, func(v float64) float64 { return math.Min(tau, math.Max(0, x+tau-v)) }) / math.Sqrt(r) / slope
			if mc := SolveRT(xi, taus, d); math.Abs(mc-x) > 5*se {
				t.Errorf("%s i=%d: rt exact %.5f vs Monte Carlo %.5f (5 se = %.5f)", tr.name, i, x, mc, 5*se)
			}
			x, _ = SolveCostExact(h, i, tau, b)
			x -= tr.start
			if x == 0 {
				continue // clamped at the start: no root to compare
			}
			_, slope = w.idle(h, x, tau)
			se = sampleSD(xi, func(v float64) float64 { return math.Max(0, v-tau-x) }) / math.Sqrt(r) / -slope
			if mc := SolveCost(xi, taus, b); math.Abs(mc-x) > 5*se {
				t.Errorf("%s i=%d: cost exact %.5f vs Monte Carlo %.5f (5 se = %.5f)", tr.name, i, x, mc, 5*se)
			}
		}
	}
}

func sampleSD(xs []float64, f func(float64) float64) float64 {
	var s, s2 float64
	for _, v := range xs {
		y := f(v)
		s += y
		s2 += y * y
	}
	n := float64(len(xs))
	m := s / n
	return math.Sqrt(math.Max(0, s2/n-m*m))
}

// TestExactLargeIndex holds the solvers' accuracy up to the longest plan
// an engine walks (10,000 entries), where the Gamma shape is largest and
// RegIncGammaP's series runs longest.
func TestExactLargeIndex(t *testing.T) {
	const (
		tau = 13.0
		i   = 10_000
	)
	// The series (below a+1) and the continued fraction (above) must meet:
	// P(a, a+1.1) − P(a, a+0.9) is the Gamma(a) density's mass between.
	a := float64(i)
	pdf := stats.Gamma{Shape: a, Scale: 1}
	var mass float64
	for k, n := 0, 200; k < n; k++ {
		u := a + 0.9 + (float64(k)+0.5)*0.2/float64(n)
		mass += pdf.PDF(u) * 0.2 / float64(n)
	}
	if got := stats.RegIncGammaP(a, a+1.1) - stats.RegIncGammaP(a, a+0.9); math.Abs(got-mass) > 1e-10 {
		t.Fatalf("P(a, ·) across the series/fraction switch: %g, density mass %g", got, mass)
	}
	h := NewHorizon(nhpp.Constant{Lambda: 40}, 0, 2.5, 0)
	x, ok := SolveRTExact(h, i, tau, 0.9)
	if !ok {
		t.Fatal("rt ran out of mass")
	}
	if e := quadWait(h, i, x, tau); math.Abs(e-0.9) > 1e-9 {
		t.Fatalf("rt: E(x) = %.12f, want 0.9", e)
	}
	x, _ = SolveCostExact(h, i, tau, 0.9)
	if c := quadIdle(h, i, x, tau); math.Abs(c-0.9) > 1e-9 {
		t.Fatalf("cost: C(x) = %.12f, want 0.9", c)
	}
}
