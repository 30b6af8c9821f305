package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Poisson is the Poisson distribution with rate Lambda. It models the query
// count within one Δt bin of the NHPP: Q_t ~ Poisson(exp(r_t)·Δt).
type Poisson struct {
	Lambda float64
}

// Mean returns λ.
func (p Poisson) Mean() float64 { return p.Lambda }

// Variance returns λ.
func (p Poisson) Variance() float64 { return p.Lambda }

// PMF returns P(X = k).
func (p Poisson) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(p.Lambda) - p.Lambda - lg)
}

// CDF returns P(X ≤ k) = Q(k+1, λ), the upper incomplete gamma identity.
func (p Poisson) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if p.Lambda == 0 {
		return 1
	}
	return RegIncGammaQ(float64(k)+1, p.Lambda)
}

// Quantile returns the smallest k with P(X ≤ k) ≥ q: the count the
// process stays at or below with probability q. It scans the CDF from
// ten standard deviations below the mean, so it needs a finite λ and
// q < 1 (no finite k reaches probability 1); λ ≤ 0 yields 0.
func (p Poisson) Quantile(q float64) int {
	if p.Lambda <= 0 {
		return 0
	}
	k := int(p.Lambda - 10*math.Sqrt(p.Lambda) - 2)
	if k < 0 {
		k = 0
	}
	for p.CDF(k) < q {
		k++
	}
	for k > 0 && p.CDF(k-1) >= q {
		k--
	}
	return k
}

// Sample draws one variate. It uses Knuth inversion for small λ and the
// PTRS transformed-rejection method (Hörmann 1993) for λ ≥ 10, giving O(1)
// expected time at any rate — important because the Fig. 8 scalability
// experiment pushes λ·Δt into the tens of thousands.
func (p Poisson) Sample(rng *rand.Rand) int {
	switch {
	case p.Lambda < 0:
		panic(fmt.Sprintf("stats: Poisson rate %g < 0", p.Lambda))
	case p.Lambda == 0:
		return 0
	case p.Lambda < 10:
		return poissonKnuth(rng, p.Lambda)
	default:
		return poissonPTRS(rng, p.Lambda)
	}
}

func poissonKnuth(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	prod := rng.Float64()
	for prod > l {
		k++
		prod *= rng.Float64()
	}
	return k
}

// poissonPTRS implements Hörmann's PTRS algorithm.
func poissonPTRS(rng *rand.Rand, lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLam := math.Log(lambda)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		k := kf
		lgk, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLam-lambda-lgk {
			return int(k)
		}
	}
}

// Exponential is the exponential distribution with mean Mean (rate 1/Mean).
// The paper uses it for query processing times in the synthetic experiments
// (mean 20 s in Fig. 8 / Table I).
type Exponential struct {
	Mean float64
}

// PDF returns the density at x.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Exp(-x/e.Mean) / e.Mean
}

// CDF returns P(X ≤ x).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-x/e.Mean)
}

// Quantile returns the p-quantile.
func (e Exponential) Quantile(p float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Exponential.Quantile p=%g outside [0,1]", p))
	}
	return -e.Mean * math.Log(1-p)
}

// Sample draws one variate.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() * e.Mean
}

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma²)). Used for
// heavy-tailed processing times in the CRS trace stand-in, whose RT
// distribution the paper reports with quantiles up to 99.9%.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// Mean returns exp(μ + σ²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// CDF returns P(X ≤ x).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return NormalCDF((math.Log(x) - l.Mu) / l.Sigma)
}

// Quantile returns the p-quantile.
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormalQuantile(p))
}

// Sample draws one variate.
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Deterministic is a degenerate distribution that always returns Value —
// the fixed 13 s pod pending time of the paper's simulated experiments.
type Deterministic struct {
	Value float64
}

// CDF returns the step CDF.
func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

// Quantile returns Value for every p.
func (d Deterministic) Quantile(float64) float64 { return d.Value }

// Sample returns Value.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.Value }

// Dist is the sampling interface shared by the positive continuous
// distributions above; pending and processing times are specified through
// it.
type Dist interface {
	Sample(rng *rand.Rand) float64
	Quantile(p float64) float64
	CDF(x float64) float64
}

var (
	_ Dist = Exponential{}
	_ Dist = LogNormal{}
	_ Dist = Deterministic{}
)
