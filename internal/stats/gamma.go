package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Gamma is the Gamma distribution with shape k and scale θ
// (mean kθ, variance kθ²). With scale 1 and integer shape i it is the
// distribution of the i-th arrival epoch of a unit-rate Poisson process,
// which is how the paper computes κ (eq. 8) and proves Propositions 1–2.
type Gamma struct {
	Shape float64
	Scale float64
}

// Mean returns kθ.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

// Variance returns kθ².
func (g Gamma) Variance() float64 { return g.Shape * g.Scale * g.Scale }

// PDF returns the density at x.
func (g Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		if g.Shape < 1 {
			return math.Inf(1)
		}
		if g.Shape == 1 {
			return 1 / g.Scale
		}
		return 0
	}
	k, th := g.Shape, g.Scale
	lg, _ := math.Lgamma(k)
	return math.Exp((k-1)*math.Log(x) - x/th - lg - k*math.Log(th))
}

// CDF returns P(X ≤ x).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegIncGammaP(g.Shape, x/g.Scale)
}

// Quantile returns the p-quantile, i.e. the smallest x with CDF(x) ≥ p.
// It uses a Wilson–Hilferty initial guess refined by Newton iterations with
// bisection safeguards.
func (g Gamma) Quantile(p float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Gamma.Quantile p=%g outside [0,1]", p))
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	k := g.Shape
	// Wilson–Hilferty approximation for the initial guess (scale-1).
	z := NormalQuantile(p)
	c := 1 - 1/(9*k) + z/(3*math.Sqrt(k))
	x := k * c * c * c
	if x <= 0 || math.IsNaN(x) {
		x = k * math.Exp((math.Log(p)+LogGamma(k+1))/k) // small-x series inversion
		if x <= 0 || math.IsNaN(x) {
			x = 1e-8
		}
	}
	lg, _ := math.Lgamma(k)
	lo, hi := 0.0, math.Inf(1)
	for i := 0; i < 200; i++ {
		f := RegIncGammaP(k, x) - p
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		pdf := math.Exp((k-1)*math.Log(x) - x - lg)
		var next float64
		if pdf > 0 {
			next = x - f/pdf
		}
		if pdf == 0 || next <= lo || next >= hi || math.IsNaN(next) {
			// Bisection fallback.
			if math.IsInf(hi, 1) {
				next = 2 * x
			} else {
				next = (lo + hi) / 2
			}
		}
		if math.Abs(next-x) <= 1e-12*(1+x) {
			x = next
			break
		}
		x = next
	}
	return x * g.Scale
}

// Sample draws one variate using the Marsaglia–Tsang squeeze method
// (with Ahrens–Dieter boost for shape < 1).
func (g Gamma) Sample(rng *rand.Rand) float64 {
	k := g.Shape
	if k < 1 {
		// X = Y·U^{1/k} with Y ~ Gamma(k+1, 1).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return Gamma{Shape: k + 1, Scale: g.Scale}.Sample(rng) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * g.Scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * g.Scale
		}
	}
}

// NormalQuantile returns the p-quantile of the standard normal
// distribution using the Acklam rational approximation refined by one
// Halley step against math.Erfc. Accuracy is ~1e-15 over (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// NormalCDF returns the standard normal CDF at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
