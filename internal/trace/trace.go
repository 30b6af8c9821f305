// Package trace provides workload traces for the experiments: synthetic
// stand-ins for the three real-world traces the paper evaluates on (which
// are proprietary or require external downloads), the perturbation and
// missing-data injectors of Sec. VII, and CSV encoding for external
// traces. Each generator reproduces the structural properties the paper
// highlights — rate level, periodicity, noise, spikes — so the autoscalers
// exercise identical code paths; see DESIGN.md §3 for the substitution
// rationale.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"robustscaler/internal/nhpp"
	"robustscaler/internal/sim"
	"robustscaler/internal/timeseries"
)

// Trace is a replayable workload with its train/test split and the
// pending-time scale its experiments use.
type Trace struct {
	Name    string
	Queries []sim.Query
	Start   float64 // seconds
	End     float64
	// TrainEnd splits training data [Start, TrainEnd) from test data
	// [TrainEnd, End).
	TrainEnd float64
	// MeanPending µτ and MeanService µs document the trace's instance
	// startup scale and average processing time.
	MeanPending float64
	MeanService float64
}

const (
	day  = 86400.0
	week = 7 * day
	hour = 3600.0
)

// Train returns the training-portion queries.
func (t *Trace) Train() []sim.Query { return t.rangeQueries(t.Start, t.TrainEnd) }

// Test returns the test-portion queries.
func (t *Trace) Test() []sim.Query { return t.rangeQueries(t.TrainEnd, t.End) }

func (t *Trace) rangeQueries(a, b float64) []sim.Query {
	var out []sim.Query
	for _, q := range t.Queries {
		if q.Arrival >= a && q.Arrival < b {
			out = append(out, q)
		}
	}
	return out
}

// CountSeries bins the full trace's arrivals into counts with the given
// Δt (seconds).
func (t *Trace) CountSeries(dt float64) *timeseries.Series {
	return timeseries.FromArrivals(sim.Arrivals(t.Queries), t.Start, t.End, dt)
}

// TrainCountSeries bins only the training portion.
func (t *Trace) TrainCountSeries(dt float64) *timeseries.Series {
	return timeseries.FromArrivals(sim.Arrivals(t.Train()), t.Start, t.TrainEnd, dt)
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	out := *t
	out.Queries = make([]sim.Query, len(t.Queries))
	copy(out.Queries, t.Queries)
	return &out
}

// sortQueries restores arrival order after edits.
func (t *Trace) sortQueries() {
	sort.Slice(t.Queries, func(i, j int) bool {
		return t.Queries[i].Arrival < t.Queries[j].Arrival
	})
}

// RemoveRange deletes all queries with arrival in [a, b) — the paper's
// missing-data injection (an entire day is removed from the CRS trace).
func (t *Trace) RemoveRange(a, b float64) {
	kept := t.Queries[:0]
	for _, q := range t.Queries {
		if q.Arrival < a || q.Arrival >= b {
			kept = append(kept, q)
		}
	}
	t.Queries = kept
}

// Thin keeps each query in [a, b) with probability keep — used to erase
// the Alibaba burst down to its baseline level.
func (t *Trace) Thin(a, b, keep float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	kept := t.Queries[:0]
	for _, q := range t.Queries {
		if q.Arrival >= a && q.Arrival < b && rng.Float64() >= keep {
			continue
		}
		kept = append(kept, q)
	}
	t.Queries = kept
}

// Perturb applies the Sec. VII-B1 perturbation of size c: starting from
// the trace beginning, every hour the queries inside a five-minute window
// are deleted; starting from the sixth minute, every hour c additional
// copies of the queries inside a five-minute window are injected (with
// small jitter so arrivals stay distinct).
func (t *Trace) Perturb(c int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Delete [h·3600, h·3600+300).
	kept := t.Queries[:0]
	for _, q := range t.Queries {
		off := math.Mod(q.Arrival-t.Start, hour)
		if off >= 0 && off < 300 {
			continue
		}
		kept = append(kept, q)
	}
	t.Queries = kept
	// Duplicate queries in [h·3600+360, h·3600+660) c times.
	var added []sim.Query
	for _, q := range t.Queries {
		off := math.Mod(q.Arrival-t.Start, hour)
		if off >= 360 && off < 660 {
			for k := 0; k < c; k++ {
				jitter := (rng.Float64() - 0.5) * 60
				a := q.Arrival + jitter
				if a < t.Start {
					a = t.Start
				}
				if a >= t.End {
					a = t.End - 1e-6
				}
				added = append(added, sim.Query{Arrival: a, Service: q.Service})
			}
		}
	}
	t.Queries = append(t.Queries, added...)
	t.sortQueries()
}

// hourlyNoise builds a deterministic log-normal multiplier per hour,
// giving traces the rough, non-smooth texture of real QPS series.
func hourlyNoise(rng *rand.Rand, hours int, sigma float64) []float64 {
	m := make([]float64, hours+1)
	for i := range m {
		m[i] = math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
	}
	return m
}

// generate draws an NHPP trace from the intensity and attaches service
// times from the sampler.
func generate(name string, seed int64, in nhpp.Intensity, start, end, trainEnd float64,
	service func(rng *rand.Rand) float64, meanPending, meanService float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	arrivals := nhpp.Simulate(rng, in, start, end)
	qs := make([]sim.Query, len(arrivals))
	for i, a := range arrivals {
		qs[i] = sim.Query{Arrival: a, Service: service(rng)}
	}
	return &Trace{
		Name:        name,
		Queries:     qs,
		Start:       start,
		End:         end,
		TrainEnd:    trainEnd,
		MeanPending: meanPending,
		MeanService: meanService,
	}
}

// SyntheticCRS reproduces the structure of the container-registry trace:
// four weeks, ≈21k queries (mean QPS ≈ 0.0087), a weekly cycle with
// work-hour days, strong hourly noise, and heavy-tailed processing times
// whose mean sits near the paper's ≈175 s response-time floor. The first
// three weeks are training data, the last week is test data.
func SyntheticCRS(seed int64) *Trace {
	noiseRng := rand.New(rand.NewSource(seed ^ 0x5eed0c25))
	noise := hourlyNoise(noiseRng, int(4*week/hour), 0.25)
	in := nhpp.Func{
		F: func(t float64) float64 {
			d := math.Mod(t, day) / day   // position in day
			w := math.Mod(t, week) / week // position in week
			// Weekday factor: weekends quieter.
			wd := 1.0
			if w >= 5.0/7 {
				wd = 0.35
			}
			// Daytime hump.
			diurnal := 0.25 + 1.5*math.Exp(-squared((d-0.55)/0.18))
			base := 0.0087 * wd * diurnal / 0.82 // normalized to mean ≈ 0.0087
			h := int(t / hour)
			if h >= 0 && h < len(noise) {
				base *= noise[h]
			}
			return base
		},
		Step:       60,
		MaxHorizon: 5 * week,
	}
	svc := func(rng *rand.Rand) float64 {
		// LogNormal(µ=ln 64, σ=1.4): mean ≈ 170 s, 99.9% ≈ 5 000 s —
		// matching the paper's RT floor near 180 s and multi-thousand
		// second tail quantiles.
		return math.Exp(math.Log(64) + 1.4*rng.NormFloat64())
	}
	return generate("CRS", seed, in, 0, 4*week, 3*week, svc, 30, 170)
}

// SyntheticGoogle reproduces the Google cluster 2019 "cluster b" day:
// 24 hours, ≈20k jobs (mean QPS ≈ 0.23), recurrent sharp spikes on an
// hourly lattice over a diurnal baseline. First 18 h train, last 6 h test.
func SyntheticGoogle(seed int64) *Trace {
	noiseRng := rand.New(rand.NewSource(seed ^ 0x900913))
	noise := hourlyNoise(noiseRng, 24, 0.15)
	in := nhpp.Func{
		F: func(t float64) float64 {
			d := math.Mod(t, day) / day
			base := 0.12 * (1 + 0.5*math.Sin(2*math.Pi*(d-0.25)))
			// Recurrent spike in the first 5 minutes of every hour.
			off := math.Mod(t, hour)
			if off < 300 {
				base += 1.3
			}
			h := int(t / hour)
			if h >= 0 && h < len(noise) {
				base *= noise[h]
			}
			return base
		},
		Step:       30,
		MaxHorizon: 2 * day,
	}
	svc := func(rng *rand.Rand) float64 { return rng.ExpFloat64() * 120 }
	return generate("Google", seed, in, 0, day, 18*hour, svc, 13, 120)
}

// SyntheticAlibaba reproduces the Alibaba cluster 2018 slice: five days,
// ≈500k jobs (mean QPS ≈ 1.17), diurnal periodicity with recurrent
// spikes, plus one unexpected burst on day four — the anomaly the paper's
// robustness study removes. First four days train, last day test.
func SyntheticAlibaba(seed int64) *Trace {
	noiseRng := rand.New(rand.NewSource(seed ^ 0xa11baba))
	noise := hourlyNoise(noiseRng, int(5*day/hour), 0.15)
	in := nhpp.Func{
		F: func(t float64) float64 {
			d := math.Mod(t, day) / day
			base := 1.0 * (0.45 + 1.1*math.Exp(-squared((d-0.5)/0.22)))
			// Recurrent spikes every 6 hours.
			off := math.Mod(t, 6*hour)
			if off < 600 {
				base += 2.0
			}
			// Unexpected burst on day 4: 40 minutes at ~6× the peak.
			if t >= 3.3*day && t < 3.3*day+2400 {
				base += 8.0
			}
			h := int(t / hour)
			if h >= 0 && h < len(noise) {
				base *= noise[h]
			}
			return base
		},
		Step:       30,
		MaxHorizon: 6 * day,
	}
	svc := func(rng *rand.Rand) float64 { return rng.ExpFloat64() * 60 }
	return generate("Alibaba", seed, in, 0, 5*day, 4*day, svc, 13, 60)
}

// AlibabaBurstWindow reports the synthetic Alibaba anomaly interval, used
// by the robustness experiment to erase it.
func AlibabaBurstWindow() (float64, float64) { return 3.3 * day, 3.3*day + 2400 }

func squared(x float64) float64 { return x * x }

// Validate checks trace invariants: sorted arrivals within range and
// positive service times.
func (t *Trace) Validate() error {
	prev := math.Inf(-1)
	for i, q := range t.Queries {
		if q.Arrival < t.Start || q.Arrival >= t.End {
			return fmt.Errorf("trace %s: query %d arrival %g outside [%g,%g)", t.Name, i, q.Arrival, t.Start, t.End)
		}
		if q.Arrival < prev {
			return fmt.Errorf("trace %s: query %d out of order", t.Name, i)
		}
		if q.Service <= 0 {
			return fmt.Errorf("trace %s: query %d non-positive service %g", t.Name, i, q.Service)
		}
		prev = q.Arrival
	}
	if t.TrainEnd <= t.Start || t.TrainEnd > t.End {
		return fmt.Errorf("trace %s: bad train split %g", t.Name, t.TrainEnd)
	}
	return nil
}
