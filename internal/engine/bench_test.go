package engine

import (
	"testing"

	"robustscaler/internal/gen"
)

// BenchmarkEngineIngest measures steady-state ingest: in-order batches
// appended to a large existing history. The seed implementation re-sorted
// the whole history on every POST (O(n log n) per event); the engine
// appends sorted batches in O(batch).
func BenchmarkEngineIngest(b *testing.B) {
	const batchSize = 100
	cfg := DefaultConfig()
	cfg.HistoryWindow = 0 // isolate append cost from trimming
	cfg.Now = func() float64 { return 0 }
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm history: a day of minute-spaced arrivals.
	warm := make([]float64, 86400/60)
	for i := range warm {
		warm[i] = float64(i * 60)
	}
	e.Ingest(warm)
	batch := make([]float64, batchSize)
	next := warm[len(warm)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			next += 0.5
			batch[j] = next
		}
		e.Ingest(batch)
	}
}

// BenchmarkEngineIngestOutOfOrder measures the merge fallback for
// batches that land behind already-recorded history.
func BenchmarkEngineIngestOutOfOrder(b *testing.B) {
	const batchSize = 100
	cfg := DefaultConfig()
	cfg.HistoryWindow = 0
	cfg.Now = func() float64 { return 0 }
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	warm := make([]float64, 86400/60)
	for i := range warm {
		warm[i] = float64(i * 60)
	}
	e.Ingest(warm)
	batch := make([]float64, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = float64((i*batchSize+j)%86000) + 0.25
		}
		e.Ingest(batch)
	}
}

// trainedOn returns an engine trained on g's arrivals, its clock at the
// end of the history.
func trainedOn(b *testing.B, g gen.MultiPeriodic, dt float64) *Engine {
	qs := g.Generate(71)
	ts := make([]float64, len(qs))
	for i, q := range qs {
		ts[i] = q.Arrival
	}
	cfg := DefaultConfig()
	cfg.Dt = dt
	cfg.Now = func() float64 { return g.Span.End }
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Ingest(ts); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Train(); err != nil {
		b.Fatal(err)
	}
	return e
}

// benchPlanMiss plans req at a fresh explicit now every iteration, so
// each plan is computed. The forecast is periodic, so the plan length
// stays representative however far b.N walks.
func benchPlanMiss(b *testing.B, e *Engine, req PlanRequest) {
	start := req.Now
	entries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Now = start + float64(i)*15
		p, err := e.Plan(req)
		if err != nil {
			b.Fatal(err)
		}
		entries += len(p.Plan)
	}
	b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
}

// BenchmarkPlanMissHP measures an hp plan cache miss in the shape of the
// benchmark's query_steady workload: a model trained on 6 h of periodic
// history at 0.5 qps, target 0.9, a 600 s horizon. The Gamma quantile
// table is process-wide, so after the first iteration every miss reads
// it warm.
func BenchmarkPlanMissHP(b *testing.B) {
	const start, history = 1_700_000_000.0, 6 * gen.Hour
	e := trainedOn(b, gen.MultiPeriodic{
		ID:        "plan-miss",
		Span:      gen.Frame{Start: start, End: start + history, TrainEnd: start + history, MeanPending: 13, MeanService: 5},
		Level:     0.5,
		Harmonics: []gen.Harmonic{{Period: 2 * gen.Hour, Amp: 0.5, Phase: 1}},
	}, 60)
	benchPlanMiss(b, e, PlanRequest{Variant: "hp", Target: 0.9, Horizon: 600, Now: start + history, HasNow: true})
}

// mixedLiveShape is the benchmark's mixed_live workload: 30 min of
// history at 40 qps on a 300 s cycle, Δt 10 s, planned 2.5 s ahead.
func mixedLiveShape() gen.MultiPeriodic {
	const start, history = 1_700_000_000.0, 1800.0
	return gen.MultiPeriodic{
		ID:        "plan-miss-mixed",
		Span:      gen.Frame{Start: start, End: start + history, TrainEnd: start + history, MeanPending: 13, MeanService: 5},
		Level:     40,
		Harmonics: []gen.Harmonic{{Period: 300, Amp: 0.5, Phase: 1}, {Period: 100, Amp: 0.25, Phase: 2}},
	}
}

// BenchmarkPlanMissRT measures an rt plan cache miss at mixed_live's
// shape with its default 0.9 s wait budget.
func BenchmarkPlanMissRT(b *testing.B) {
	g := mixedLiveShape()
	e := trainedOn(b, g, 10)
	benchPlanMiss(b, e, PlanRequest{Variant: "rt", Target: 0.9, Horizon: 2.5, Now: g.Span.End, HasNow: true})
}

// BenchmarkPlanMissCost measures a cost plan cache miss at mixed_live's
// shape with a 0.9 s idle budget.
func BenchmarkPlanMissCost(b *testing.B) {
	g := mixedLiveShape()
	e := trainedOn(b, g, 10)
	benchPlanMiss(b, e, PlanRequest{Variant: "cost", Target: 0.9, Horizon: 2.5, Now: g.Span.End, HasNow: true})
}
