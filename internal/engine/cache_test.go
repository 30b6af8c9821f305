package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// planReq is the fixed round used by the cache tests.
func planReq(variant string, now float64) PlanRequest {
	target := 0.9
	if variant != "hp" {
		target = 5
	}
	return PlanRequest{Variant: variant, Target: target, Horizon: 1800, Now: now, HasNow: true}
}

// TestPlanCacheHitAndInvalidation pins the cache lifecycle: an
// identical re-request returns the cached round (same pointer — no
// recompute), new arrivals keep it (a round reads only the model and
// the config), and a snapshot restore starts cold.
func TestPlanCacheHitAndInvalidation(t *testing.T) {
	const now = 4 * 3600.0
	for _, variant := range []string{"hp", "rt", "cost"} {
		t.Run(variant, func(t *testing.T) {
			e := trainedEngine(t, now)
			p1, err := e.Plan(planReq(variant, now))
			if err != nil {
				t.Fatal(err)
			}
			p2, err := e.Plan(planReq(variant, now))
			if err != nil {
				t.Fatal(err)
			}
			if p1 != p2 {
				t.Fatal("identical re-request recomputed instead of hitting the cache")
			}
			// A different query is its own slot, and must not evict the
			// first one.
			other := planReq(variant, now)
			other.Horizon = 900
			if _, err := e.Plan(other); err != nil {
				t.Fatal(err)
			}
			p3, err := e.Plan(planReq(variant, now))
			if err != nil {
				t.Fatal(err)
			}
			if p3 != p1 {
				t.Fatal("distinct query evicted an unrelated cache entry")
			}

			// Ingest keeps the round: the model it was computed from is
			// still installed.
			if _, err := e.Ingest([]float64{now + 1}); err != nil {
				t.Fatal(err)
			}
			p4, err := e.Plan(planReq(variant, now))
			if err != nil {
				t.Fatal(err)
			}
			if p4 != p1 {
				t.Fatal("ingest dropped the cached round")
			}

			// A fresh engine restored from the post-ingest snapshot computes
			// its own round — for hp, the same one.
			p5, err := restoredCopy(t, e, now).Plan(planReq(variant, now))
			if err != nil {
				t.Fatal(err)
			}
			if p5 == p4 {
				t.Fatal("restored engine shares cache entries with its source")
			}
			if variant == "hp" && !reflect.DeepEqual(p5, p4) {
				t.Fatal("round served after an ingest differs from the restored engine's")
			}
		})
	}
}

// TestPlanJSONByteCache pins the plan's rendered-bytes fast path for
// every variant. The bytes served for a round — the streamed plan on a
// miss, the body rendered on the first hit, the body reused on later
// hits — equal json.Encoder's rendering of Plan's result; only keys
// served twice hold a body; an ingest keeps the body; and a train, a
// config update and a restore each make the next hit re-render from the
// new plan.
func TestPlanJSONByteCache(t *testing.T) {
	const now = 4 * 3600.0
	for _, variant := range []string{"hp", "rt", "cost"} {
		t.Run(variant, func(t *testing.T) {
			e := trainedEngine(t, now)
			blob, err := e.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			req := planReq(variant, now)
			// serve returns the bytes the HTTP handler sends for req and
			// whether they came from the byte cache.
			serve := func(req PlanRequest) ([]byte, bool) {
				t.Helper()
				body, plan, err := e.PlanJSON(req)
				if err != nil {
					t.Fatal(err)
				}
				if (body == nil) == (plan == nil) {
					t.Fatalf("PlanJSON returned body %v, plan %v; want exactly one", body != nil, plan != nil)
				}
				if body == nil {
					return encodeJSON(t, plan), false
				}
				return body, true
			}
			// want renders Plan's (cached) result the way the handler
			// used to on every request.
			want := func() []byte {
				t.Helper()
				p, err := e.Plan(req)
				if err != nil {
					t.Fatal(err)
				}
				return encodeJSON(t, p)
			}

			streamed, hit := serve(req)
			if hit {
				t.Fatal("first request served a cached body")
			}
			other := req
			other.Horizon = 900
			if _, hit := serve(other); hit {
				t.Fatal("first request for a second key served a cached body")
			}
			if n := cachedBodies(e); n != 0 {
				t.Fatalf("%d bodies held after first requests only; keys served once must hold none", n)
			}
			if !bytes.Equal(streamed, want()) {
				t.Fatalf("streamed miss differs from encoding Plan:\n%s\nvs\n%s", streamed, want())
			}
			if n := cachedBodies(e); n != 0 {
				t.Fatalf("Plan rendered %d bodies; only PlanJSON hits may", n)
			}
			first, hit := serve(req)
			if !hit || !bytes.Equal(first, streamed) {
				t.Fatalf("first hit (cached %v) differs from the streamed miss:\n%s\nvs\n%s", hit, first, streamed)
			}
			if n := cachedBodies(e); n != 1 {
				t.Fatalf("%d bodies held; want 1, the key served twice", n)
			}
			later, hit := serve(req)
			if !hit || &later[0] != &first[0] {
				t.Fatal("later hit re-rendered instead of reusing the cached body")
			}
			original := first

			if _, err := e.Ingest([]float64{now + 1}); err != nil {
				t.Fatal(err)
			}
			kept, hit := serve(req)
			if !hit || &kept[0] != &first[0] {
				t.Fatal("ingest dropped the cached body")
			}
			if p, err := restoredCopy(t, e, now).Plan(req); err != nil {
				t.Fatal(err)
			} else if variant == "hp" && !bytes.Equal(kept, encodeJSON(t, p)) {
				t.Fatalf("body served after an ingest differs from the restored engine's:\n%s\nvs\n%s", kept, encodeJSON(t, p))
			}

			prev := later
			for _, tc := range []struct {
				name string
				do   func() error
			}{
				{"train", func() error {
					_, err := e.Train()
					return err
				}},
				{"config update", func() error {
					ec := e.EngineConfig()
					ec.Pending++
					_, err := e.SetEngineConfig(ec)
					return err
				}},
				{"restore", func() error { return e.RestoreState(blob) }},
			} {
				if err := tc.do(); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				streamed, hit := serve(req)
				if hit {
					t.Fatalf("%s: byte cache survived", tc.name)
				}
				b, hit := serve(req)
				if !hit || &b[0] == &prev[0] {
					t.Fatalf("%s: next hit did not re-render", tc.name)
				}
				if w := want(); !bytes.Equal(b, w) || !bytes.Equal(b, streamed) {
					t.Fatalf("%s: re-rendered body differs from the new plan:\n%s\nvs\n%s", tc.name, b, w)
				}
				prev = b
			}
			// The restore brought back the original state, so its plan
			// renders the original bytes.
			if !bytes.Equal(prev, original) {
				t.Fatalf("restored state renders different bytes:\n%s\nvs\n%s", prev, original)
			}
		})
	}
}

// encodeJSON renders v the way json.Encoder writes a response body.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// cachedBodies counts the plan cache entries holding a rendered body.
func cachedBodies(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	if e.results != nil {
		for _, ent := range e.results.plans {
			if ent.body != nil {
				n++
			}
		}
	}
	return n
}

// restoredCopy returns a fresh engine restored from e's MarshalState:
// the reference a cached result must match, since it has never served.
func restoredCopy(t *testing.T, e *Engine, now float64) *Engine {
	t.Helper()
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
	return dst
}

// TestPlanCacheTrainInvalidates proves a model swap (same arrivals, new
// fit) misses the cache.
func TestPlanCacheTrainInvalidates(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	p1, err := e.Plan(planReq("hp", now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	p2, err := e.Plan(planReq("hp", now))
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("cache survived a retrain (model pointer changed)")
	}
	// The recomputed round is still the same decision — same data, same
	// deterministic fit.
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("refit over identical arrivals changed the hp plan")
	}
}

// TestForecastCacheLifecycle mirrors the plan-cache test for forecasts.
func TestForecastCacheLifecycle(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	f1, err := e.Forecast(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := e.Forecast(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if &f1[0] != &f2[0] {
		t.Fatal("identical forecast recomputed instead of hitting the cache")
	}
	// Ingest keeps the forecast: the model it was read off is still
	// installed, and a fresh engine restored after the ingest agrees.
	if _, err := e.Ingest([]float64{now + 1}); err != nil {
		t.Fatal(err)
	}
	f3, err := e.Forecast(now, now+3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if &f1[0] != &f3[0] {
		t.Fatal("ingest dropped the cached forecast")
	}
	if !reflect.DeepEqual(f3, mustForecast(t, restoredCopy(t, e, now), now)) {
		t.Fatal("forecast served after an ingest differs from the restored engine's")
	}
}

// TestPlanCacheQuantizesClockAnchoredRequests: without an explicit now,
// polls within one Dt/4 window share a cache slot; a poll in the next
// window recomputes.
func TestPlanCacheQuantizesClockAnchoredRequests(t *testing.T) {
	const start = 4 * 3600.0
	clock := start
	cfg := testConfig(0)
	cfg.Now = func() float64 { return clock }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(trafficArrivals(7, start)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	req := PlanRequest{Variant: "hp", Target: 0.9, Horizon: 1800}
	p1, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	clock = start + e.Config().Dt/8 // same Dt/4 window
	p2, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("clock moved within one quantum but the plan recomputed")
	}
	clock = start + e.Config().Dt // next window
	p3, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("stale plan served beyond its quantum")
	}
	if p3.Now != clock {
		t.Fatalf("recomputed plan anchored at %g, want %g", p3.Now, clock)
	}

	// An explicit now= on a window's quantum boundary must NOT be served
	// the clock-anchored round cached for that window: that round is
	// anchored at the drifted clock reading, while the explicit request
	// promises exact anchoring.
	boundary := start + 2*e.Config().Dt // a fresh window's quantum boundary
	clock = boundary + 5                // clock drifted past it
	drifted, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Now != clock {
		t.Fatalf("clock-anchored plan anchored at %g, want %g", drifted.Now, clock)
	}
	exact, err := e.Plan(PlanRequest{Variant: "hp", Target: 0.9, Horizon: 1800, Now: boundary, HasNow: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Now != boundary {
		t.Fatalf("explicit now=%g answered with a plan anchored at %g", boundary, exact.Now)
	}
}

// TestIngestSortedChunksMatchesIngest proves the fast path lands the
// same history the generic path would, including window trimming and
// the straggler-merge fallback.
func TestIngestSortedChunksMatchesIngest(t *testing.T) {
	const now = 4 * 3600.0
	mk := func() (*Engine, *Engine) {
		cfg := testConfig(now)
		cfg.HistoryWindow = 3000
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	arrivals := func(e *Engine) []float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return append([]float64(nil), e.arrivals...)
	}

	a, b := mk()
	warm := trafficArrivals(3, now)
	if _, err := a.Ingest(warm); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Ingest(warm); err != nil {
		t.Fatal(err)
	}
	// A sorted batch split into uneven chunks, starting behind the
	// recorded tail (straggler merge) and running past it (append).
	batch := []float64{now - 200, now - 100, now + 1, now + 2, now + 300, now + 301, now + 302}
	totalA, err := a.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	totalB, err := b.IngestSortedChunks([][]float64{batch[:2], batch[2:4], {}, batch[4:]})
	if err != nil {
		t.Fatal(err)
	}
	if totalA != totalB {
		t.Fatalf("totals differ: Ingest %d, IngestSortedChunks %d", totalA, totalB)
	}
	if got, want := arrivals(b), arrivals(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("histories differ:\nfast    %v\ngeneric %v", got, want)
	}

	// Out-of-order chunk boundaries are rejected before any mutation.
	if _, err := b.IngestSortedChunks([][]float64{{5, 6}, {1}}); err == nil {
		t.Fatal("out-of-order chunk boundary accepted")
	}
	if got := arrivals(b); !reflect.DeepEqual(got, arrivals(a)) {
		t.Fatal("rejected batch mutated the history")
	}

	// An all-expired batch is a gen-preserving no-op, like Ingest.
	preGen := b.gen
	if n, err := b.IngestSortedChunks([][]float64{{1, 2}}); err != nil || n != totalB {
		t.Fatalf("expired batch = (%d, %v), want (%d, nil)", n, err, totalB)
	}
	if b.gen != preGen {
		t.Fatal("expired batch bumped gen")
	}

	// Empty chunks only: total unchanged, no gen bump.
	if n, err := b.IngestSortedChunks([][]float64{{}}); err != nil || n != totalB {
		t.Fatalf("empty batch = (%d, %v), want (%d, nil)", n, err, totalB)
	}
}

// TestIngestSortedChunksLargeAppend exercises the single up-front
// reserve across many chunks and checks the result stays sorted end to
// end. The reserve carries bounded headroom (≤ 25%) so steady-state
// ingest behind a trimming history window doesn't re-copy the live
// window on every batch.
func TestIngestSortedChunksLargeAppend(t *testing.T) {
	cfg := testConfig(0)
	cfg.HistoryWindow = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const chunkLen, chunks = 1000, 7
	var all [][]float64
	v := 0.0
	for c := 0; c < chunks; c++ {
		chunk := make([]float64, chunkLen)
		for i := range chunk {
			v += 0.25
			chunk[i] = v
		}
		all = append(all, chunk)
	}
	total, err := e.IngestSortedChunks(all)
	if err != nil {
		t.Fatal(err)
	}
	if total != chunkLen*chunks {
		t.Fatalf("total = %d, want %d", total, chunkLen*chunks)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !sort.Float64sAreSorted(e.arrivals) {
		t.Fatal("history not sorted after chunked append")
	}
	const need = chunkLen * chunks
	if c := cap(e.arrivals); c < need || c > need+need/4 {
		t.Fatalf("reserve allocated cap %d, want in [%d, %d]", c, need, need+need/4)
	}
}

// TestIngestSortedChunksSteadyStateAmortized pins the reserve's headroom
// against a regression where streaming ingest behind a full history
// window reallocated (and copied the entire live window) on every
// batch: trimLocked re-slices the dead prefix away, permanently
// donating that capacity, so an exactly-sized reserve overflows again
// immediately. With headroom the grows must be a small fraction of the
// batches.
func TestIngestSortedChunksSteadyStateAmortized(t *testing.T) {
	cfg := testConfig(0)
	cfg.HistoryWindow = 1000 // ~1000 resident at 1s spacing
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 50
	ts := 0.0
	next := func() []float64 {
		chunk := make([]float64, batch)
		for i := range chunk {
			ts++
			chunk[i] = ts
		}
		return chunk
	}
	// Fill the window so every further batch runs in steady state.
	for n := 0; n < 1000; n += batch {
		if _, err := e.IngestSortedChunks([][]float64{next()}); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 60
	grows := 0
	prevCap := cap(e.arrivals)
	for r := 0; r < rounds; r++ {
		if _, err := e.IngestSortedChunks([][]float64{next()}); err != nil {
			t.Fatal(err)
		}
		if c := cap(e.arrivals); c > prevCap {
			grows++
		}
		prevCap = cap(e.arrivals)
	}
	if grows > rounds/2 {
		t.Fatalf("steady-state ingest grew the backing array %d times in %d batches; reserve headroom is not amortizing", grows, rounds)
	}
}

// TestForecastRejectsNonFinite pins the guard Plan and Forecast share:
// NaN/Inf bounds return ErrInvalid instead of looping or poisoning the
// series (satellite regression test; the HTTP layer screens these too,
// but direct API callers bypass it).
func TestForecastRejectsNonFinite(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	for _, bad := range [][3]float64{
		{math.NaN(), now + 600, 60},
		{now, math.NaN(), 60},
		{now, now + 600, math.NaN()},
		{math.Inf(-1), now + 600, 60},
		{now, math.Inf(1), 60},
		{now, now + 600, math.Inf(1)},
	} {
		if _, err := e.Forecast(bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("Forecast(%v) accepted non-finite bounds", bad)
		}
	}
}

// TestPlanEntriesExactSize checks the plan a miss caches: its entries
// hold no spare capacity (the walk's growth stays in a pooled buffer),
// and an empty round keeps the nil plan that encodes as null.
func TestPlanEntriesExactSize(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	for _, variant := range []string{"hp", "rt"} {
		p, err := e.Plan(planReq(variant, now))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Plan) == 0 || cap(p.Plan) != len(p.Plan) {
			t.Fatalf("%s: %d entries, capacity %d; want a non-empty exact-size plan", variant, len(p.Plan), cap(p.Plan))
		}
	}
	req := planReq("hp", now)
	req.Horizon = -1 // every creation time falls past the window
	p, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if p.Plan != nil {
		t.Fatalf("empty round has plan %v, want nil", p.Plan)
	}
	if body := encodeJSON(t, p); !bytes.Contains(body, []byte(`"plan":null`)) {
		t.Fatalf("empty round encodes as %s, want \"plan\":null", body)
	}
}

// TestResultCacheOrphanedStores pins the rule that replaced the
// store-time staleness checks: a result computed while a train or a
// config update replaced the installed pair lands in the cache it was
// looked up in, which is then unreachable, so the live cache only ever
// holds results of the live (model, config). Ingests, trains, config
// updates and hp plan and forecast reads interleave on one engine (run
// it under -race) while a checker holds every live entry to what the
// installed pair computes; afterwards every key must hit, and each hit
// must equal what a fresh engine restored from MarshalState serves.
func TestResultCacheOrphanedStores(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	var plans []PlanRequest
	for _, target := range []float64{0.5, 0.9, 0.99} {
		plans = append(plans, PlanRequest{Variant: "hp", Target: target, Horizon: 1800, Now: now, HasNow: true})
	}
	forecasts := [][3]float64{{now, now + 3600, 60}, {now - 1800, now + 1800, 300}}
	read := func() error {
		for _, req := range plans {
			if _, _, err := e.PlanJSON(req); err != nil {
				return err
			}
		}
		for _, f := range forecasts {
			if _, err := e.ForecastJSON(f[0], f[1], f[2]); err != nil {
				return err
			}
		}
		return nil
	}
	// check compares every entry of the live cache with what a fresh
	// engine holding the installed (model, config) computes.
	check := func() error {
		e.mu.Lock()
		model, ec := e.model, e.ec
		cached := map[int]*Plan{}
		cachedPts := map[int][]ForecastPoint{}
		if rc := e.results; rc != nil {
			for i, req := range plans {
				if ent, ok := rc.plans[planKey{variant: "hp", target: req.Target, horizon: req.Horizon, now: now, hasNow: true}]; ok {
					cached[i] = ent.plan
				}
			}
			for i, f := range forecasts {
				if ent, ok := rc.forecasts[forecastKey{from: f[0], to: f[1], step: f[2]}]; ok {
					cachedPts[i] = ent.pts
				}
			}
		}
		e.mu.Unlock()
		ref, err := New(testConfig(now))
		if err != nil {
			return err
		}
		ref.model, ref.ec = model, ec
		for i, p := range cached {
			if want, err := ref.Plan(plans[i]); err != nil || !reflect.DeepEqual(p, want) {
				return fmt.Errorf("live cache holds an hp %g round of a replaced model or config (%v)", plans[i].Target, err)
			}
		}
		for i, pts := range cachedPts {
			f := forecasts[i]
			if want, err := ref.Forecast(f[0], f[1], f[2]); err != nil || !reflect.DeepEqual(pts, want) {
				return fmt.Errorf("live cache holds a forecast %v of a replaced model (%v)", f, err)
			}
		}
		return nil
	}

	var writers, readers sync.WaitGroup
	var writersDone atomic.Bool
	deadline := time.Now().Add(time.Second)
	loop := func(wg *sync.WaitGroup, step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if err := step(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	loop(&writers, func(i int) error {
		_, err := e.Ingest([]float64{now + float64(i)})
		time.Sleep(time.Millisecond)
		return err
	})
	loop(&writers, func(int) error {
		_, err := e.Train()
		return err
	})
	loop(&writers, func(i int) error {
		ec := e.EngineConfig()
		ec.Pending = float64(10 + i%5) // plans lead creations by τ
		_, err := e.SetEngineConfig(ec)
		time.Sleep(100 * time.Microsecond)
		return err
	})
	loop(&writers, func(int) error { return check() })
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				// A pass that starts after the writers stopped caches every
				// key under the final pair; then the reader is done.
				last := writersDone.Load()
				if err := read(); err != nil {
					t.Error(err)
					return
				}
				if last {
					return
				}
			}
		}()
	}
	writers.Wait()
	writersDone.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}

	ref := restoredCopy(t, e, now)
	for _, req := range plans {
		body, _, err := e.PlanJSON(req)
		if err != nil {
			t.Fatal(err)
		}
		if body == nil {
			t.Fatalf("target %g: no cached round after the final read pass", req.Target)
		}
		p, err := ref.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeJSON(t, p); !bytes.Equal(body, want) {
			t.Fatalf("target %g: cached round differs from the restored engine's:\n%s\nvs\n%s", req.Target, body, want)
		}
	}
	for _, f := range forecasts {
		hits := e.Stats().ForecastCacheHits
		body, err := e.ForecastJSON(f[0], f[1], f[2])
		if err != nil {
			t.Fatal(err)
		}
		if e.Stats().ForecastCacheHits != hits+1 {
			t.Fatalf("forecast %v: no cached entry after the final read pass", f)
		}
		want, err := ref.ForecastJSON(f[0], f[1], f[2])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("forecast %v: cached bytes differ from the restored engine's:\n%s\nvs\n%s", f, body, want)
		}
	}
}

// TestResultCacheCountBound pins the per-map bound now that ingest no
// longer resets the cache: with ingests interleaved, more than
// maxCachedResults distinct explicit-now hp rounds and forecasts never
// grow either map past the bound, and the maps do fill up to it.
func TestResultCacheCountBound(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	peakPlans, peakForecasts := 0, 0
	for i := 0; i < 2*maxCachedResults+10; i++ {
		if i%10 == 0 {
			if _, err := e.Ingest([]float64{now + float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Plan(planReq("hp", now+float64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Forecast(now, now+3600+float64(i), 60); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.PlanCacheEntries > maxCachedResults || st.ForecastCacheEntries > maxCachedResults {
			t.Fatalf("after %d rounds: %d plan / %d forecast entries, bound %d",
				i+1, st.PlanCacheEntries, st.ForecastCacheEntries, maxCachedResults)
		}
		peakPlans, peakForecasts = max(peakPlans, st.PlanCacheEntries), max(peakForecasts, st.ForecastCacheEntries)
	}
	if peakPlans != maxCachedResults || peakForecasts != maxCachedResults {
		t.Fatalf("peaks %d plan / %d forecast entries; ingests must not reset the maps before the bound %d",
			peakPlans, peakForecasts, maxCachedResults)
	}
}

// TestResultCacheHitZeroAlloc pins the hit paths behind the HTTP
// surface: a repeated PlanJSON or ForecastJSON, once its body is
// rendered, allocates nothing.
func TestResultCacheHitZeroAlloc(t *testing.T) {
	const now = 4 * 3600.0
	e := trainedEngine(t, now)
	req := planReq("hp", now)
	for i := 0; i < 2; i++ { // a miss, then the hit that renders the body
		if _, _, err := e.PlanJSON(req); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ForecastJSON(now, now+3600, 60); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() { e.PlanJSON(req) }); a != 0 {
		t.Fatalf("PlanJSON hit: %g allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { e.ForecastJSON(now, now+3600, 60) }); a != 0 {
		t.Fatalf("ForecastJSON hit: %g allocs, want 0", a)
	}
}
