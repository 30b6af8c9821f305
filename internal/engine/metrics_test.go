package engine

import (
	"os"
	"strings"
	"testing"

	"robustscaler/internal/metrics"
	"robustscaler/internal/store"
)

// metricsTestConfig returns a config whose fits are fast and whose
// clock is fixed.
func metricsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.MCSamples = 50
	cfg.Now = func() float64 { return 7200 }
	return cfg
}

// denseArrivals returns n arrivals at a steady pace ending before the
// fake clock.
func denseArrivals(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * 7000 / float64(n)
	}
	return out
}

func TestEngineStatsCounters(t *testing.T) {
	e, err := New(metricsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(denseArrivals(200)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.IngestedEvents != 200 || st.IngestedBatches != 1 {
		t.Fatalf("after ingest: events=%d batches=%d, want 200/1", st.IngestedEvents, st.IngestedBatches)
	}
	if st.StalenessGenerations != 1 {
		t.Fatalf("staleness before train = %d, want 1", st.StalenessGenerations)
	}
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	req := PlanRequest{Variant: "hp", Target: 0.9, Horizon: 600, Now: 7200, HasNow: true}
	if _, err := e.Plan(req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan(req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Forecast(7200, 7800, 60); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Refits != 1 || st.RefitFailures != 0 || st.RefitSecondsTotal <= 0 {
		t.Fatalf("refit stats = %d/%d/%g, want 1/0/>0", st.Refits, st.RefitFailures, st.RefitSecondsTotal)
	}
	if st.StalenessGenerations != 0 {
		t.Fatalf("staleness after train = %d, want 0", st.StalenessGenerations)
	}
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 1 {
		t.Fatalf("plan cache = %d hits / %d misses, want 1/1", st.PlanCacheHits, st.PlanCacheMisses)
	}
	if st.ForecastCacheMisses != 1 || st.PlanCacheEntries != 1 || st.ForecastCacheEntries != 1 {
		t.Fatalf("forecast/entries = %d misses, %d plan entries, %d fc entries, want 1/1/1",
			st.ForecastCacheMisses, st.PlanCacheEntries, st.ForecastCacheEntries)
	}
	if st.LastRefitAt != 7200 {
		t.Fatalf("LastRefitAt = %g, want the fake clock 7200", st.LastRefitAt)
	}

	// The entry counts are the live cache's: a train, a config update and
	// a restore drop it at once, with no read in between, and an ingest
	// keeps it.
	blob, err := e.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		do   func() error
		want int
	}{
		{"train", func() error { _, err := e.Train(); return err }, 0},
		{"ingest", func() error { _, err := e.Ingest([]float64{7000}); return err }, 1},
		{"config update", func() error {
			ec := e.EngineConfig()
			ec.Pending++
			_, err := e.SetEngineConfig(ec)
			return err
		}, 0},
		{"restore", func() error { return e.RestoreState(blob) }, 0},
	} {
		if _, err := e.Plan(req); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Forecast(7200, 7800, 60); err != nil {
			t.Fatal(err)
		}
		if err := tc.do(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := e.Stats(); st.PlanCacheEntries != tc.want || st.ForecastCacheEntries != tc.want {
			t.Fatalf("after %s: %d plan / %d forecast entries, want %d/%d",
				tc.name, st.PlanCacheEntries, st.ForecastCacheEntries, tc.want, tc.want)
		}
	}

	// A failed fit counts as a failure, not a refit. (Window 0 keeps
	// both points, so the astronomical span reaches the bins guard.)
	badCfg := metricsTestConfig()
	badCfg.HistoryWindow = 0
	bad, err := New(badCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Ingest([]float64{0, 1e14}); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Train(); err == nil {
		t.Fatal("degenerate history trained successfully?")
	}
	if bst := bad.Stats(); bst.Refits != 0 || bst.RefitFailures != 1 {
		t.Fatalf("failed fit stats = %d/%d, want 0/1", bst.Refits, bst.RefitFailures)
	}
}

// TestRegistrySnapshotHealth pins the persistence-health trail: success
// primes it, failures accumulate consecutively, and the next success
// clears the streak (while the lifetime failure count stays).
func TestRegistrySnapshotHealth(t *testing.T) {
	reg, err := NewRegistry(metricsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.GetOrCreate("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(denseArrivals(10)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h := reg.SnapshotHealth(); h.Snapshots != 0 || h.LastSuccessUnix != 0 {
		t.Fatalf("pristine health = %+v", h)
	}
	if _, err := reg.SnapshotTo(st); err != nil {
		t.Fatal(err)
	}
	h := reg.SnapshotHealth()
	if h.Snapshots != 1 || h.Failures != 0 || h.ConsecutiveFailures != 0 || h.LastSuccessUnix == 0 {
		t.Fatalf("health after success = %+v", h)
	}

	// Break the directory; two failing snapshots must stack.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := e.Ingest([]float64{7000 + float64(i)}); err != nil {
			t.Fatal(err) // dirty the workload so the commit writes a file
		}
		if _, err := reg.SnapshotTo(st); err == nil {
			t.Fatal("snapshot into a broken dir succeeded")
		}
		h = reg.SnapshotHealth()
		if h.ConsecutiveFailures != uint64(i) || h.Failures != uint64(i) || h.LastError == "" {
			t.Fatalf("health after %d failures = %+v", i, h)
		}
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir+"/workloads", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SnapshotTo(st); err != nil {
		t.Fatal(err)
	}
	h = reg.SnapshotHealth()
	if h.ConsecutiveFailures != 0 || h.Failures != 2 || h.Snapshots != 4 || h.LastError != "" {
		t.Fatalf("health after recovery = %+v", h)
	}
}

// TestRegistryInstrumentAggregates pins the fleet aggregates: two
// workloads' counters must sum on the exposition page, and the shared
// refit histogram must observe fits from engines created after
// Instrument ran.
func TestRegistryInstrumentAggregates(t *testing.T) {
	reg, err := NewRegistry(metricsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewRegistry()
	reg.Instrument(m)
	for _, id := range []string{"a", "b"} {
		e, err := reg.GetOrCreate(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(denseArrivals(100)); err != nil {
			t.Fatal(err)
		}
	}
	ea, _ := reg.Get("a")
	if _, err := ea.Train(); err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"robustscaler_workloads":                    2,
		"robustscaler_engine_ingested_events_total": 200,
		"robustscaler_refits_total":                 1,
		"robustscaler_workloads_stale":              1, // b has data, no model
		"robustscaler_staleness_generations":        1,
	} {
		if got, ok := m.Value(series); !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", series, got, ok, want)
		}
	}
	if got, _ := m.Value("robustscaler_refit_seconds"); got != 1 {
		t.Errorf("refit histogram count = %g, want 1", got)
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "robustscaler_refit_seconds_bucket") {
		t.Errorf("exposition missing refit histogram:\n%s", sb.String())
	}
}
