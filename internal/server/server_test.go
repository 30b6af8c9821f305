package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"robustscaler/internal/nhpp"
)

// newTestServer builds a server with a fake clock at fakeNow.
func newTestServer(t *testing.T, fakeNow float64) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MCSamples = 200
	cfg.Now = func() float64 { return fakeNow }
	cfg.Train.DetectPeriodicity = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// trafficArrivals draws a periodic NHPP for ingestion.
func trafficArrivals(seed int64, horizon float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	in := nhpp.Func{F: func(t float64) float64 {
		return 0.3 + 0.25*math.Sin(2*math.Pi*t/3600)
	}, Step: 10, MaxHorizon: horizon * 2}
	return nhpp.Simulate(rng, in, 0, horizon)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestIngestTrainPlanFlow(t *testing.T) {
	const horizon = 6 * 3600.0
	_, ts := newTestServer(t, horizon)
	arr := trafficArrivals(1, horizon)

	// Ingest in two batches.
	half := len(arr) / 2
	resp := postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": arr[:half]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arrivals status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": arr[half:]})
	got := decode[map[string]any](t, resp)
	if int(got["total"].(float64)) != len(arr) {
		t.Fatalf("total = %v, want %d", got["total"], len(arr))
	}

	// Train.
	resp = postJSON(t, ts.URL+"/v1/workloads/w/train", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train status %d", resp.StatusCode)
	}
	tr := decode[trainResponse](t, resp)
	if !tr.Converged {
		t.Fatal("training did not converge")
	}
	if math.Abs(tr.PeriodSeconds-3600) > 600 {
		t.Fatalf("period %g, want ≈3600", tr.PeriodSeconds)
	}

	// Plan: creation times must be within the horizon, non-decreasing,
	// and the first κ entries should be immediate (lead 0).
	resp2, err := http.Get(fmt.Sprintf("%s/v1/workloads/w/plan?variant=hp&target=0.9&horizon=120&now=%g", ts.URL, horizon))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d", resp2.StatusCode)
	}
	plan := decode[planResponse](t, resp2)
	if len(plan.Plan) == 0 {
		t.Fatal("empty plan")
	}
	prev := -1.0
	for _, e := range plan.Plan {
		if e.CreateAt < horizon || e.CreateAt > horizon+120 {
			t.Fatalf("creation %g outside [now, now+120]", e.CreateAt)
		}
		if e.CreateAt < prev {
			t.Fatal("plan not sorted")
		}
		prev = e.CreateAt
	}
	if plan.Kappa < 1 {
		t.Fatalf("κ = %d, expected ≥ 1 at this rate", plan.Kappa)
	}
	if plan.Plan[0].LeadSecs != 0 {
		t.Fatalf("first planned creation should be immediate, lead %g", plan.Plan[0].LeadSecs)
	}
}

func TestPlanVariants(t *testing.T) {
	const horizon = 4 * 3600.0
	_, ts := newTestServer(t, horizon)
	arr := trafficArrivals(2, horizon)
	postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": arr}).Body.Close()
	postJSON(t, ts.URL+"/v1/workloads/w/train", map[string]any{}).Body.Close()

	for _, variant := range []string{"rt", "cost"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/workloads/w/plan?variant=%s&target=2&horizon=60&now=%g", ts.URL, variant, horizon))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s plan status %d", variant, resp.StatusCode)
		}
		plan := decode[planResponse](t, resp)
		if plan.Variant != variant {
			t.Fatalf("variant echo %q", plan.Variant)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/workloads/w/plan?variant=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus variant status %d", resp.StatusCode)
	}
}

// TestPlanHitServesCachedBytes pins the plan byte cache at the HTTP
// surface: the streamed first request and the cached repeats carry the
// same bytes and Content-Type, and each request moves the plan cache
// counters by exactly one.
func TestPlanHitServesCachedBytes(t *testing.T) {
	const horizon = 4 * 3600.0
	_, ts := newTestServer(t, horizon)
	arr := trafficArrivals(4, horizon)
	postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": arr}).Body.Close()
	postJSON(t, ts.URL+"/v1/workloads/w/train", map[string]any{}).Body.Close()

	var hits, misses float64
	for _, q := range []string{"variant=hp&target=0.9", "variant=rt&target=2", "variant=cost&target=2"} {
		url := fmt.Sprintf("%s/v1/workloads/w/plan?%s&horizon=600&now=%g", ts.URL, q, horizon)
		var first []byte
		for i := 0; i < 3; i++ { // miss, first hit (renders), later hit
			resp := mustGet(t, url)
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s #%d: status %d", q, i, resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s #%d: Content-Type %q", q, i, ct)
			}
			if i == 0 {
				misses++
				first = body
			} else {
				hits++
				if !bytes.Equal(body, first) {
					t.Fatalf("%s #%d: cached body differs from the streamed miss:\n%s\nvs\n%s", q, i, body, first)
				}
			}
			m := scrape(t, ts.URL)
			if got := m["robustscaler_plan_cache_hits_total"]; got != hits {
				t.Fatalf("%s #%d: plan cache hits %g, want %g", q, i, got, hits)
			}
			if got := m["robustscaler_plan_cache_misses_total"]; got != misses {
				t.Fatalf("%s #%d: plan cache misses %g, want %g", q, i, got, misses)
			}
		}
		// The bytes are json.Encoder's rendering of the plan.
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(decode[planResponse](t, mustGet(t, url))); err != nil {
			t.Fatal(err)
		}
		hits++
		if !bytes.Equal(b.Bytes(), first) {
			t.Fatalf("%s: served bytes are not the plan's JSON encoding:\n%s\nvs\n%s", q, first, b.Bytes())
		}
	}
}

func TestForecastEndpoint(t *testing.T) {
	const horizon = 4 * 3600.0
	_, ts := newTestServer(t, horizon)
	arr := trafficArrivals(3, horizon)
	postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": arr}).Body.Close()
	postJSON(t, ts.URL+"/v1/workloads/w/train", map[string]any{}).Body.Close()

	resp, err := http.Get(fmt.Sprintf("%s/v1/workloads/w/forecast?from=%g&to=%g&step=300", ts.URL, horizon, horizon+3600))
	if err != nil {
		t.Fatal(err)
	}
	pts := decode[[]forecastPoint](t, resp)
	if len(pts) != 12 {
		t.Fatalf("forecast points %d, want 12", len(pts))
	}
	for _, p := range pts {
		if p.QPS < 0 || p.QPS > 10 {
			t.Fatalf("implausible forecast %g qps", p.QPS)
		}
	}
}

// TestDefaultForecastSnapsToClockSlot: a forecast without from is
// anchored on the clock's Dt/4 slot, like a clock-anchored plan, so two
// polls inside one slot are one cache entry with identical bytes, and a
// poll in the next slot moves the anchor with it.
func TestDefaultForecastSnapsToClockSlot(t *testing.T) {
	const horizon = 4 * 3600.0 // a slot boundary: Dt 60 s, slots of 15 s
	clock := horizon + 1
	cfg := DefaultConfig()
	cfg.Now = func() float64 { return clock }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": trafficArrivals(3, horizon)}).Body.Close()
	postJSON(t, ts.URL+"/v1/workloads/w/train", map[string]any{}).Body.Close()
	get := func() []byte {
		t.Helper()
		resp := mustGet(t, ts.URL+"/v1/workloads/w/forecast")
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("default forecast: status %d, %v", resp.StatusCode, err)
		}
		return body
	}
	first := get()
	clock = horizon + 14
	if second := get(); !bytes.Equal(second, first) {
		t.Fatal("two default forecasts inside one slot returned different bytes")
	}
	e, _ := s.Registry().Get("w")
	if st := e.Stats(); st.ForecastCacheHits != 1 || st.ForecastCacheMisses != 1 {
		t.Fatalf("forecast cache hits/misses = %d/%d, want 1/1", st.ForecastCacheHits, st.ForecastCacheMisses)
	}
	var pts []forecastPoint
	if err := json.Unmarshal(first, &pts); err != nil || len(pts) == 0 || pts[0].T != horizon {
		t.Fatalf("default forecast anchored at %v (%v), want %g", pts, err, horizon)
	}
	clock = horizon + 16
	if err := json.Unmarshal(get(), &pts); err != nil || pts[0].T != horizon+15 {
		t.Fatalf("next slot's forecast anchored at %g (%v), want %g", pts[0].T, err, horizon+15)
	}
}

func TestPlanWithoutModelConflicts(t *testing.T) {
	_, ts := newTestServer(t, 0)
	// The workload must exist (reads on unknown IDs are 404s); only a
	// model is missing.
	postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": []float64{1, 2}}).Body.Close()
	resp, err := http.Get(ts.URL + "/v1/workloads/w/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("plan without model: status %d, want 409", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/v1/workloads/w/forecast")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("forecast without model: status %d, want 409", resp2.StatusCode)
	}
}

func TestTrainNeedsArrivals(t *testing.T) {
	_, ts := newTestServer(t, 0)
	// One arrival registers the workload but is below the two the fitter
	// needs.
	postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": []float64{5}}).Body.Close()
	resp := postJSON(t, ts.URL+"/v1/workloads/w/train", map[string]any{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("train without data: status %d, want 409", resp.StatusCode)
	}
}

func TestArrivalsValidation(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp := postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": []float64{}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty timestamps: status %d, want 400", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/workloads/w/arrivals", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", r2.StatusCode)
	}
	r3, err := http.Get(ts.URL + "/v1/workloads/w/arrivals")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET arrivals: status %d, want 405", r3.StatusCode)
	}
}

func TestStatusReflectsState(t *testing.T) {
	const horizon = 4 * 3600.0
	_, ts := newTestServer(t, horizon)
	st, err := http.Get(ts.URL + "/v1/workloads/w/status")
	if err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if st.StatusCode != http.StatusNotFound {
		t.Fatalf("status before any ingest: %d, want 404 (workload doesn't exist)", st.StatusCode)
	}
	arr := trafficArrivals(4, horizon)
	postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": arr}).Body.Close()
	postJSON(t, ts.URL+"/v1/workloads/w/train", map[string]any{}).Body.Close()
	st2, err := http.Get(ts.URL + "/v1/workloads/w/status")
	if err != nil {
		t.Fatal(err)
	}
	after := decode[statusResponse](t, st2)
	if !after.ModelReady || after.Arrivals != len(arr) || after.TrainedOn != len(arr) {
		t.Fatalf("status after train wrong: %+v", after)
	}
	if after.RateNow <= 0 {
		t.Fatalf("rate now %g", after.RateNow)
	}
}

func TestHistoryWindowTrimming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryWindow = 100
	cfg.Now = func() float64 { return 0 }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/workloads/w/arrivals", map[string]any{"timestamps": []float64{0, 10, 500, 560, 590}}).Body.Close()
	st, err := http.Get(ts.URL + "/v1/workloads/w/status")
	if err != nil {
		t.Fatal(err)
	}
	got := decode[statusResponse](t, st)
	if got.Arrivals != 3 {
		t.Fatalf("history trimmed to %d arrivals, want 3 (window 100 ending at 590)", got.Arrivals)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dt = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero Dt accepted")
	}
	cfg = DefaultConfig()
	cfg.Pending = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative pending accepted")
	}
}
