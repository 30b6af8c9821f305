package server

import (
	"io"
	"net/http"
	"testing"

	"robustscaler/internal/wal"
)

// The config document has one schema, engine.EngineConfig, so every
// block GET shows is settable — the wal block included, through both
// the single-workload and the bulk route — and the engine applies it to
// the attached log.
func TestConfigPutWALKnob(t *testing.T) {
	s, ts := newTestServer(t, 0)
	mgr, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	mgr.Instrument(s.Metrics())
	if err := s.Registry().AttachWAL(mgr, ""); err != nil {
		t.Fatal(err)
	}
	fsyncs := func() float64 {
		v, _ := s.Metrics().Value("robustscaler_wal_fsyncs_total")
		return v
	}
	seedWorkloads(t, ts.URL, "svc", "other")
	if n := fsyncs(); n != 0 {
		t.Fatalf("fsync-off ingest fsynced %g times", n)
	}

	resp := putJSON(t, ts.URL+"/v1/workloads/svc/config", `{"wal": {"fsync": "always"}}`)
	if msg, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT wal knob: %d (%s)", resp.StatusCode, msg)
	}
	resp.Body.Close()
	got := decode[map[string]any](t, mustGet(t, ts.URL+"/v1/workloads/svc/config"))
	if w, _ := got["wal"].(map[string]any); w["fsync"] != "always" {
		t.Fatalf("wal block after PUT = %v", got["wal"])
	}
	postJSON(t, ts.URL+"/v1/workloads/svc/arrivals", map[string]any{"timestamps": []float64{4, 5}}).Body.Close()
	if n := fsyncs(); n < 1 {
		t.Fatal("wal.fsync=always was stored but not applied to the workload's log")
	}

	resp = putJSON(t, ts.URL+"/v1/admin/config", `{"workloads": ["other"], "config": {"wal": {"fsync": "interval"}}}`)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("bulk wal knob: %d (%s)", resp.StatusCode, msg)
	}
	if bulk := decode[BulkConfigResponse](t, resp); !bulk.Results["other"].OK {
		t.Fatalf("bulk wal knob: %+v", bulk)
	}
	if e, _ := s.Registry().Get("other"); e.EngineConfig().WAL.Fsync != "interval" {
		t.Fatalf("bulk wal knob not applied: %+v", e.EngineConfig().WAL)
	}
}

// A GET body PUT back unchanged must apply (version+1): any knob added
// to EngineConfig is settable by construction.
func TestConfigGetPutRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, 0)
	seedWorkloads(t, ts.URL, "svc")
	resp := mustGet(t, ts.URL+"/v1/workloads/svc/config")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp = putJSON(t, ts.URL+"/v1/workloads/svc/config", string(body))
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET body PUT back: %d (%s), want 200", resp.StatusCode, msg)
	}
	if got := decode[map[string]any](t, resp); got["version"] != float64(2) {
		t.Fatalf("GET body PUT back: version %v, want 2", got["version"])
	}
	// An explicit version 0 is still a CAS token, not "absent".
	r := putJSON(t, ts.URL+"/v1/workloads/svc/config", `{"version": 0, "pending": 5}`)
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("explicit version 0: %d, want 409", r.StatusCode)
	}
}

// A PUT decodes over a copy of the live config; the candidate-period
// slice of a config value read earlier must not be rewritten by it.
// Readers run concurrently so -race sees any shared backing array.
func TestConfigPutDoesNotAliasLiveConfig(t *testing.T) {
	s, ts := newTestServer(t, 0)
	seedWorkloads(t, ts.URL, "svc")
	putJSON(t, ts.URL+"/v1/workloads/svc/config", `{"train": {"candidate_periods": [3600, 86400]}}`).Body.Close()
	e, _ := s.Registry().Get("svc")
	before := e.EngineConfig()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = before.Train.CandidatePeriods[0] + before.Train.CandidatePeriods[1]
		}
	}()
	resp := putJSON(t, ts.URL+"/v1/workloads/svc/config", `{"train": {"candidate_periods": [7200, 604800]}}`)
	resp.Body.Close()
	<-done
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d", resp.StatusCode)
	}
	if cp := before.Train.CandidatePeriods; len(cp) != 2 || cp[0] != 3600 || cp[1] != 86400 {
		t.Fatalf("config read before the PUT changed under it: %v", cp)
	}
	if cp := e.EngineConfig().Train.CandidatePeriods; len(cp) != 2 || cp[0] != 7200 || cp[1] != 604800 {
		t.Fatalf("config after the PUT = %v", cp)
	}
}
