package stats

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGammaSample measures the Marsaglia–Tsang sampler (the hot path
// of arrival-epoch sampling in the decision module).
func BenchmarkGammaSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := Gamma{Shape: 25, Scale: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Sample(rng)
	}
}

// BenchmarkGammaQuantile measures the Newton-refined quantile (the κ
// computation and the exact HP path) across the shapes an hp plan walks:
// a short plan, a typical one, and one near the plan-length cap.
func BenchmarkGammaQuantile(b *testing.B) {
	for _, k := range []float64{25, 300, 5000} {
		b.Run(fmt.Sprintf("shape=%g", k), func(b *testing.B) {
			g := Gamma{Shape: k, Scale: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Quantile(0.1)
			}
		})
	}
}

// BenchmarkPoissonSampleSmall exercises the Knuth branch (λ < 10).
func BenchmarkPoissonSampleSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := Poisson{Lambda: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Sample(rng)
	}
}

// BenchmarkPoissonSampleLarge exercises the PTRS branch used when binning
// high-QPS intensities.
func BenchmarkPoissonSampleLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := Poisson{Lambda: 60000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Sample(rng)
	}
}

// BenchmarkRegIncGammaP measures the special-function core.
func BenchmarkRegIncGammaP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RegIncGammaP(25, 20)
	}
}

// BenchmarkQuantile measures the empirical quantile on a decision-sized
// sample.
func BenchmarkQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantile(xs, 0.1)
	}
}
