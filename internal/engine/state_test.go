package engine

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"robustscaler/internal/store"
)

// trainedEngine builds an engine with a fitted model over periodic
// traffic, the normal pre-snapshot state.
func trainedEngine(t *testing.T, now float64) *Engine {
	t.Helper()
	e, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(trafficArrivals(7, now)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	return e
}

// planOf runs a fixed planning round, the fingerprint compared across a
// marshal/restore round trip.
func planOf(t *testing.T, e *Engine, variant string, now float64) *Plan {
	t.Helper()
	target := 0.9
	if variant == "rt" {
		target = 5
	}
	p, err := e.Plan(PlanRequest{Variant: variant, Target: target, Horizon: 1800, Now: now, HasNow: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMarshalRestoreRoundTripBitForBit(t *testing.T) {
	const now = 4 * 3600.0
	src := trainedEngine(t, now)
	wantHP := planOf(t, src, "hp", now)
	wantRT := planOf(t, src, "rt", now)
	wantCost := planOf(t, src, "cost", now)
	wantFC, err := src.Forecast(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus := src.Status()

	blob, err := src.MarshalState()
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

	if got := dst.Status(); !reflect.DeepEqual(got, wantStatus) {
		t.Fatalf("status after restore = %+v, want %+v", got, wantStatus)
	}
	if got := planOf(t, dst, "hp", now); !reflect.DeepEqual(got, wantHP) {
		t.Fatalf("hp plan after restore = %+v, want %+v", got, wantHP)
	}
	if got := planOf(t, dst, "rt", now); !reflect.DeepEqual(got, wantRT) {
		t.Fatalf("rt plan after restore = %+v, want %+v", got, wantRT)
	}
	if got := planOf(t, dst, "cost", now); !reflect.DeepEqual(got, wantCost) {
		t.Fatalf("cost plan after restore = %+v, want %+v", got, wantCost)
	}
	got, err := dst.Forecast(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantFC) {
		t.Fatal("forecast after restore differs")
	}
}

// TestRTCostPlansIgnoreSeed: rt and cost plans draw no random numbers.
// Blobs that differ only in the "seed" builds with Monte Carlo plans
// wrote restore to byte-identical plans, and so do two registry
// workloads with the same traffic, which were once seeded from their
// IDs.
func TestRTCostPlansIgnoreSeed(t *testing.T) {
	const now = 4 * 3600.0
	src := trainedEngine(t, now)
	want := map[string]string{}
	for _, v := range []string{"rt", "cost"} {
		want[v] = mustJSONString(t, planOf(t, src, v, now))
	}
	blob, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["seed"]; ok {
		t.Fatal(`MarshalState still writes the retired "seed"`)
	}
	for _, seed := range []string{"1", "42", "-9000"} {
		m["seed"] = json.RawMessage(seed)
		seeded, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := New(testConfig(now))
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RestoreState(seeded); err != nil {
			t.Fatal(err)
		}
		for v, w := range want {
			if got := mustJSONString(t, planOf(t, dst, v, now)); got != w {
				t.Fatalf("seed %s: %s plan differs from the source engine's", seed, v)
			}
		}
	}

	r, err := NewRegistry(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"api-eu", "batch-7"} {
		e, err := r.GetOrCreate(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(trafficArrivals(7, now)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Train(); err != nil {
			t.Fatal(err)
		}
		for v, w := range want {
			if got := mustJSONString(t, planOf(t, e, v, now)); got != w {
				t.Fatalf("workload %s: %s plan differs from the standalone engine's", id, v)
			}
		}
	}
}

// TestRestoreSeededV1Fixture: the committed v1 snapshot, whose blobs
// carry a "seed", still restores, and its trained workload plans every
// variant.
func TestRestoreSeededV1Fixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "store", "testdata", "v1-snapshot.rsnap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.SnapshotFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const now = 400.0
	r, err := NewRegistry(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.RestoreFrom(st); err != nil || n != 2 {
		t.Fatalf("RestoreFrom = (%d, %v), want (2, nil)", n, err)
	}
	e, ok := r.Get("ci-runners")
	if !ok {
		t.Fatal("ci-runners missing after restore")
	}
	for _, v := range []string{"hp", "rt", "cost"} {
		if p := planOf(t, e, v, now); len(p.Plan) == 0 {
			t.Fatalf("restored fixture's %s plan is empty", v)
		}
	}
}

func TestRestoreMarksModelFresh(t *testing.T) {
	const now = 4 * 3600.0
	blob, err := trainedEngine(t, now).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	// The restored model covers the restored arrivals: no refit due.
	if ran, err := e.Retrain(); err != nil || ran {
		t.Fatalf("Retrain after restore = (%v, %v), want (false, nil)", ran, err)
	}
	// New traffic makes it stale again.
	if _, err := e.Ingest([]float64{now + 1, now + 2}); err != nil {
		t.Fatal(err)
	}
	if ran, err := e.Retrain(); err != nil || !ran {
		t.Fatalf("Retrain after new traffic = (%v, %v), want (true, nil)", ran, err)
	}
}

func TestRestorePreservesStaleness(t *testing.T) {
	const now = 4 * 3600.0
	src := trainedEngine(t, now)
	// Traffic lands after the fit: the workload is due a refit, and a
	// snapshot+restart must not launder that away.
	if _, err := src.Ingest([]float64{now + 1, now + 2}); err != nil {
		t.Fatal(err)
	}
	blob, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	// The stale model still serves plans immediately...
	if _, err := e.Plan(PlanRequest{Target: 0.9, Horizon: 60, HasNow: true, Now: now}); err != nil {
		t.Fatalf("plan on restored stale model: %v", err)
	}
	// ...but the next sweep refits it, as it would have pre-restart.
	if ran, err := e.Retrain(); err != nil || !ran {
		t.Fatalf("Retrain of restored stale workload = (%v, %v), want (true, nil)", ran, err)
	}
}

func TestRestorePreservesFailedFit(t *testing.T) {
	const now = 4 * 3600.0
	src, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	// A history spanning more than maxTrainBins bins fails the fit and
	// marks the generation failed, so retrain sweeps skip the workload.
	if _, err := src.Ingest([]float64{0, 3e8}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Train(); err == nil {
		t.Fatal("expected training to fail on an astronomic span")
	}
	if ran, err := src.Retrain(); err != nil || ran {
		t.Fatalf("pre-snapshot Retrain = (%v, %v), want skip", ran, err)
	}
	blob, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	// The restored engine must keep skipping the known-failing fit, same
	// as pre-crash, instead of re-running it on every boot's first sweep.
	if ran, err := e.Retrain(); err != nil || ran {
		t.Fatalf("post-restore Retrain = (%v, %v), want skip", ran, err)
	}
	// New arrivals lift the skip, exactly like before the restart (here
	// the fit even succeeds: the history window trims the stray ancient
	// timestamp once recent traffic lands).
	if _, err := e.Ingest([]float64{3e8 + 60, 3e8 + 120, 3e8 + 180}); err != nil {
		t.Fatal(err)
	}
	if ran, err := e.Retrain(); !ran && err == nil {
		t.Fatal("Retrain after new arrivals still skipped; failed marker not cleared by fresh traffic")
	}
}

func TestRestoreUntrainedStateTriggersRetrain(t *testing.T) {
	const now = 4 * 3600.0
	src, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Ingest(trafficArrivals(7, now)); err != nil {
		t.Fatal(err)
	}
	blob, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan(PlanRequest{Target: 0.9, Horizon: 60, HasNow: true, Now: now}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("plan before fit = %v, want ErrNoModel", err)
	}
	if ran, err := e.Retrain(); err != nil || !ran {
		t.Fatalf("Retrain of restored untrained workload = (%v, %v), want (true, nil)", ran, err)
	}
}

func TestRestoreStateRejectsBadBlobs(t *testing.T) {
	const now = 4 * 3600.0
	cases := []struct {
		name string
		blob string
	}{
		{"not json", `}{`},
		{"bad dt", `{"dt":-1,"mc_samples":10}`},
		{"unsorted arrivals", `{"dt":60,"arrivals":[3,1,2]}`},
		{"out-of-range arrival", `{"dt":60,"arrivals":[1e301]}`},
		{"negative trained_n", `{"dt":60,"trained_n":-4}`},
		{"model bad dt", `{"dt":60,"model":{"dt":0,"log_intensity":[1]}}`},
		{"model empty intensity", `{"dt":60,"model":{"dt":60,"log_intensity":[]}}`},
		{"model wild intensity", `{"dt":60,"model":{"dt":60,"log_intensity":[700]}}`},
		{"model bad period", `{"dt":60,"model":{"dt":60,"log_intensity":[1,2],"period_bins":9}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := trainedEngine(t, now)
			want := e.Status()
			err := e.RestoreState([]byte(tc.blob))
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
			// Failed validation must leave the engine untouched.
			if got := e.Status(); !reflect.DeepEqual(got, want) {
				t.Fatalf("engine mutated by rejected blob: %+v -> %+v", want, got)
			}
		})
	}
}

func TestRegistrySnapshotRestoreRoundTrip(t *testing.T) {
	const now = 4 * 3600.0
	dir := t.TempDir()
	src, err := NewRegistry(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"registry-eu", "ci-runners", "faas-img"}
	for i, id := range ids {
		e, err := src.GetOrCreate(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(trafficArrivals(int64(i+1), now)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Train(); err != nil {
			t.Fatal(err)
		}
	}
	n, err := src.Snapshot(dir)
	if err != nil || n != len(ids) {
		t.Fatalf("Snapshot = (%d, %v), want (%d, nil)", n, err, len(ids))
	}

	dst, err := NewRegistry(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dst.Restore(dir); err != nil || n != len(ids) {
		t.Fatalf("Restore = (%d, %v), want (%d, nil)", n, err, len(ids))
	}
	if got, want := dst.Workloads(), src.Workloads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("workloads after restore = %v, want %v", got, want)
	}
	for _, id := range ids {
		a, _ := src.Get(id)
		b, ok := dst.Get(id)
		if !ok {
			t.Fatalf("workload %s missing after restore", id)
		}
		if got, want := planOf(t, b, "hp", now), planOf(t, a, "hp", now); !reflect.DeepEqual(got, want) {
			t.Fatalf("workload %s plan after restore differs", id)
		}
	}
}

func TestRegistryRestoreColdBoot(t *testing.T) {
	r, err := NewRegistry(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Restore(t.TempDir()); err != nil || n != 0 {
		t.Fatalf("Restore of empty dir = (%d, %v), want (0, nil)", n, err)
	}
}

func TestRegistryRestoreRejectsCorruptSnapshot(t *testing.T) {
	const now = 4 * 3600.0
	dir := t.TempDir()
	src, err := NewRegistry(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	e, err := src.GetOrCreate("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt the manifest (the commit point) and then, separately, a
	// workload file: both must fail the restore loudly.
	for _, path := range []string{
		filepath.Join(dir, store.ManifestFile),
		workloadFilePath(t, dir),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-2] ^= 0xff
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		dst, err := NewRegistry(testConfig(now))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Restore(dir); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Restore with corrupt %s = %v, want ErrCorrupt", filepath.Base(path), err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil { // heal for the next case
			t.Fatal(err)
		}
	}
}

// workloadFilePath returns the single per-workload snapshot file in dir.
func workloadFilePath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, store.WorkloadDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want exactly 1 workload file, got %d", len(entries))
	}
	return filepath.Join(dir, store.WorkloadDir, entries[0].Name())
}

func TestSnapshotterWritesAndStops(t *testing.T) {
	const now = 4 * 3600.0
	dir := t.TempDir()
	r, err := NewRegistry(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.GetOrCreate("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A long interval: only Stop's final snapshot should fire, which
	// keeps the test deterministic.
	sn := r.StartSnapshotter(st, time.Hour)
	sn.Stop()
	sn.Stop() // idempotent
	dst, err := NewRegistry(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dst.Restore(dir); err != nil || n != 1 {
		t.Fatalf("Restore after snapshotter stop = (%d, %v), want (1, nil)", n, err)
	}
}

func TestRestoreStateOverridesScalarConfig(t *testing.T) {
	const now = 4 * 3600.0
	cfg := testConfig(now)
	cfg.Dt = 30
	cfg.Pending = 7
	cfg.HistoryWindow = 86400
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Restore into an engine built from different flags: the snapshot's
	// scalars win, so plans keep the exact shape they had pre-restart.
	dst, err := New(testConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	got := dst.Config()
	if got.Dt != 30 || got.Pending != 7 || got.HistoryWindow != 86400 {
		t.Fatalf("restored config = Dt %g Pending %g HistoryWindow %g, want 30/7/86400",
			got.Dt, got.Pending, got.HistoryWindow)
	}
}
