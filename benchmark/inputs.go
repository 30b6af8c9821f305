package main

import (
	"math"
	"math/rand"

	"robustscaler/internal/gen"
	"robustscaler/internal/sim"
)

// epoch0 anchors every workload whose timestamps are not tied to the
// wall clock: a fixed instant, so explicit-now plans and forecasts are
// pure functions of the seed.
const epoch0 = 1.7e9

// subSeed derives an independent child seed (splitmix64), so workload i
// of seed s shares nothing with workload j or with seed s+1.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func arrivalsOf(qs []sim.Query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = q.Arrival
	}
	return out
}

// splitAt returns the index of the first arrival at or after t.
func splitAt(ts []float64, t float64) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// periodic is a diurnal-style sum of sinusoids around level qps over
// [start, end), with seeded phases and amplitudes.
func periodic(id string, seed int64, start, end, level float64, periods ...float64) gen.MultiPeriodic {
	rng := newRand(seed)
	g := gen.MultiPeriodic{
		ID:    id,
		Span:  gen.Frame{Start: start, End: end, TrainEnd: end, MeanPending: 13, MeanService: 5},
		Level: level * (0.8 + 0.4*rng.Float64()),
	}
	amp := 0.5
	for _, p := range periods {
		g.Harmonics = append(g.Harmonics, gen.Harmonic{Period: p, Amp: amp * (0.7 + 0.3*rng.Float64()), Phase: 2 * math.Pi * rng.Float64()})
		amp /= 2
	}
	return g
}

// noisy superposes, on a periodic base, the abstract's "noises and
// outliers": two flash crowds inside the history — outliers the robust
// fit must not carry into the forecast — and a heavy-tailed burst
// process throughout. The replayed span itself holds no flash crowd: a
// spike no model could have seen only adds misses that no fit or solver
// change can move.
func noisy(id string, seed int64, start, histEnd, end, level float64) gen.Composite {
	rng := newRand(seed ^ 0x5eed)
	frame := gen.Frame{Start: start, End: end, TrainEnd: histEnd, MeanPending: 13, MeanService: 5}
	base := periodic(id+"/base", seed, start, end, level*0.8, gen.Day, 8*gen.Hour)
	base.Span = frame
	crowd := func(name string, lo, hi float64) gen.FlashCrowd {
		return gen.FlashCrowd{
			ID: id + name, Span: frame, Base: 1e-9,
			SpikeAt: lo + (hi-lo)*rng.Float64(),
			Peak:    level * (3 + 3*rng.Float64()), RampUp: 120, Decay: 900,
		}
	}
	return gen.Composite{ID: id, Span: frame, Parts: []gen.Generator{
		base,
		crowd("/crowd-early", start+gen.Day, start+3*gen.Day),
		crowd("/crowd-late", histEnd-3*gen.Day, histEnd-gen.Hour),
		gen.HeavyTail{ID: id + "/bursts", Span: frame, MeanGap: 5 / level, TailIndex: 1.5, ServiceTailIndex: 2.5},
	}}
}
