package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestTrainWarmStartsOnlyOverNewData pins when the engine seeds a fit
// from the previous solution: never on the first fit, never on a refit
// over unchanged arrivals (which must reproduce the installed model
// bit-for-bit — see TestPlanCacheTrainInvalidates), always on a refit
// after new arrivals landed.
func TestTrainWarmStartsOnlyOverNewData(t *testing.T) {
	const now = 4 * 3600.0
	e, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(trafficArrivals(7, now)); err != nil {
		t.Fatal(err)
	}
	info, err := e.Train()
	if err != nil {
		t.Fatal(err)
	}
	if info.WarmStarted {
		t.Fatal("first fit claims a warm start")
	}
	coldIters := info.Iterations

	// Explicit retrain over identical arrivals: cold again.
	info, err = e.Train()
	if err != nil {
		t.Fatal(err)
	}
	if info.WarmStarted {
		t.Fatal("refit over unchanged arrivals warm-started (must be reproducible)")
	}

	// New arrivals → the refit warm-starts and converges faster.
	if _, err := e.Ingest([]float64{now + 10, now + 20, now + 30}); err != nil {
		t.Fatal(err)
	}
	info, err = e.Train()
	if err != nil {
		t.Fatal(err)
	}
	if !info.WarmStarted {
		t.Fatal("refit over new arrivals did not warm-start")
	}
	if info.Iterations >= coldIters {
		t.Fatalf("warm refit took %d iterations, cold took %d", info.Iterations, coldIters)
	}

	st := e.Stats()
	if st.WarmStartRefits != 1 || st.ColdStartRefits != 2 {
		t.Fatalf("warm/cold refit counters = %d/%d, want 1/2", st.WarmStartRefits, st.ColdStartRefits)
	}
	if st.RefitADMMIterations == 0 {
		t.Fatal("ADMM iteration counter did not accumulate")
	}
}

// TestTrainKnobsPlumbing proves the per-workload TrainKnobs reach the
// solver: a one-iteration budget shows up in TrainInfo, and
// DisableWarmStart forces refits over new data back to cold starts.
func TestTrainKnobsPlumbing(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)

	ec := e.EngineConfig()
	ec.Train.ADMMMaxIter = 1
	if _, err := e.SetEngineConfig(ec); err != nil {
		t.Fatal(err)
	}
	// The knob change marked the model stale; the refit must respect the
	// one-iteration budget.
	ran, err := e.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("knob change did not mark the model stale")
	}
	info, err := e.Train() // unchanged data: cold, still capped
	if err != nil {
		t.Fatal(err)
	}
	if info.Iterations != 1 {
		t.Fatalf("admm_max_iter=1 ignored: fit ran %d iterations", info.Iterations)
	}

	ec = e.EngineConfig()
	ec.Train.ADMMMaxIter = 0
	ec.Train.DisableWarmStart = true
	if _, err := e.SetEngineConfig(ec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]float64{now + 5}); err != nil {
		t.Fatal(err)
	}
	info, err = e.Train()
	if err != nil {
		t.Fatal(err)
	}
	if info.WarmStarted {
		t.Fatal("disable_warm_start=true still warm-started")
	}
}

// TestTrainKnobsValidate rejects out-of-range solver knobs at the
// config plane, leaving the config untouched.
func TestTrainKnobsValidate(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	for _, tc := range []struct {
		name string
		mut  func(*EngineConfig)
	}{
		{"negative max_iter", func(c *EngineConfig) { c.Train.ADMMMaxIter = -1 }},
		{"huge max_iter", func(c *EngineConfig) { c.Train.ADMMMaxIter = 2_000_000 }},
		{"negative tol", func(c *EngineConfig) { c.Train.ADMMTol = -0.1 }},
		{"tol >= 1", func(c *EngineConfig) { c.Train.ADMMTol = 1 }},
	} {
		ec := e.EngineConfig()
		tc.mut(&ec)
		if _, err := e.SetEngineConfig(ec); err == nil {
			t.Fatalf("%s: invalid train knob accepted", tc.name)
		}
	}
	if got := e.EngineConfig().Train; got.ADMMMaxIter != 0 || got.ADMMTol != 0 ||
		got.DisableWarmStart || got.DisablePeriodicity || len(got.CandidatePeriods) != 0 {
		t.Fatalf("rejected updates leaked into the config: %+v", got)
	}
}

// TestForecastJSONByteCache pins the rendered-bytes fast path: a miss
// keeps no body, the first hit renders one and later hits return that
// identical buffer (no re-marshal), the bytes match what encoding the
// Forecast result produces, an ingest keeps the buffer (the model is
// unchanged), and every path that replaces the model or the config —
// train, config update, restore — invalidates it.
func TestForecastJSONByteCache(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	b1, err := e.ForecastJSON(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := e.Forecast(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(b1, want) {
		t.Fatalf("missed body differs from encoding the points:\n%s\nvs\n%s", b1, want)
	}
	e.mu.Lock()
	kept := e.results.forecasts[forecastKey{from: now, to: now + 3600, step: 60}].body
	e.mu.Unlock()
	if kept != nil {
		t.Fatal("a key served once holds a body")
	}
	b2, err := e.ForecastJSON(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, want) {
		t.Fatalf("cached body differs from encoding the points:\n%s\nvs\n%s", b2, want)
	}
	later, err := e.ForecastJSON(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if &later[0] != &b2[0] {
		t.Fatal("identical forecast re-rendered instead of hitting the byte cache")
	}

	if _, err := e.Ingest([]float64{now + 1}); err != nil {
		t.Fatal(err)
	}
	kept, err = e.ForecastJSON(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if &kept[0] != &b2[0] {
		t.Fatal("ingest dropped the forecast byte cache")
	}
	if fresh, err := restoredCopy(t, e, now).ForecastJSON(now, now+3600, 60); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(kept, fresh) {
		t.Fatalf("bytes served after an ingest differ from the restored engine's:\n%s\nvs\n%s", kept, fresh)
	}

	invalidate := []struct {
		name string
		do   func() error
	}{
		{"train", func() error {
			_, err := e.Train()
			return err
		}},
		{"config update", func() error {
			ec := e.EngineConfig()
			ec.Pending = ec.Pending + 1
			_, err := e.SetEngineConfig(ec)
			return err
		}},
	}
	prev := b2
	for _, tc := range invalidate {
		if err := tc.do(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := e.ForecastJSON(now, now+3600, 60)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if &b[0] == &prev[0] {
			t.Fatalf("forecast byte cache survived %s", tc.name)
		}
		// The next request hits and keeps the body the next case checks.
		if prev, err = e.ForecastJSON(now, now+3600, 60); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}

	// Restore into a fresh engine: its bytes are its own, and — the
	// stale-bytes regression this guards — rendered from the restored
	// model, not inherited from any prior serving state.
	blob, err := e.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	b3, err := dst.ForecastJSON(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if &b3[0] == &prev[0] {
		t.Fatal("restored engine shares forecast bytes with its source")
	}
	if !bytes.Equal(b3, prev) {
		t.Fatal("restored engine renders different forecast bytes for the same model")
	}
}

// TestConcurrentWarmRefits drives a registry of workloads through
// repeated ingest + RetrainAll sweeps with concurrent forecast and plan
// readers — the steady state of scalerd — under the race detector: warm
// states are shared between the serving model and the refit pool, and
// cached response bodies are rendered while sweeps invalidate them, so
// this is the test that proves the sharing is safe.
func TestConcurrentWarmRefits(t *testing.T) {
	const now = 4 * 3600.0
	cfg := testConfig(now)
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workloads = 8
	for i := 0; i < workloads; i++ {
		e, err := r.GetOrCreate(fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(trafficArrivals(int64(i+1), now)); err != nil {
			t.Fatal(err)
		}
	}
	if refitted, failed := r.RetrainAll(4); refitted != workloads || failed != 0 {
		t.Fatalf("initial sweep: refitted %d, failed %d", refitted, failed)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < workloads; i++ {
		e, _ := r.Get(fmt.Sprintf("w%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.ForecastJSON(now, now+1800, 60); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := e.PlanJSON(planReq("hp", now)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < workloads; i++ {
			e, _ := r.Get(fmt.Sprintf("w%d", i))
			if _, err := e.Ingest([]float64{now + float64(round*10+i)}); err != nil {
				t.Fatal(err)
			}
		}
		if refitted, failed := r.RetrainAll(4); refitted != workloads || failed != 0 {
			t.Fatalf("sweep %d: refitted %d, failed %d", round, refitted, failed)
		}
	}
	close(stop)
	wg.Wait()

	// Most sweep refits warm-start; the remainder legitimately fall back
	// cold when a new arrival shifts the detected period by a bin (the
	// objective changed, so the old solution must not transfer).
	warm, cold := uint64(0), uint64(0)
	for i := 0; i < workloads; i++ {
		st, _ := r.Get(fmt.Sprintf("w%d", i))
		s := st.Stats()
		warm += s.WarmStartRefits
		cold += s.ColdStartRefits
	}
	total := uint64(4 * workloads) // initial sweep + 3 refit sweeps
	if warm+cold != total {
		t.Fatalf("warm %d + cold %d != %d refits", warm, cold, total)
	}
	if warm < uint64(3*workloads)/2 {
		t.Fatalf("only %d of %d sweep refits warm-started", warm, 3*workloads)
	}
}
