package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"robustscaler"
	"robustscaler/internal/decision"
	"robustscaler/internal/encode"
	"robustscaler/internal/engine"
	"robustscaler/internal/fleet"
	"robustscaler/internal/metrics"
	"robustscaler/internal/nhpp"
	"robustscaler/internal/periodicity"
	"robustscaler/internal/pipeline"
	"robustscaler/internal/ring"
	"robustscaler/internal/sim"
	"robustscaler/internal/store"
	"robustscaler/internal/timeseries"
	"robustscaler/internal/wal"
)

// Layer probes: direct calls into each layer's public functions with
// the traced workload's own shapes (batch size, wire format, history
// length, bin width, planning horizon), timed from here. They cover
// what the depth ladder cannot reach through a request — fits, Monte
// Carlo plans, commits, replays, the router — and the counts that must
// repeat exactly (allocations, iterations, ratios).

// timeMs runs fn reps times and returns each run's duration in ms.
func timeMs(reps int, fn func() error) ([]float64, error) {
	out := make([]float64, reps)
	for i := range out {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return out, nil
}

const probeReps = 5 // repetitions of a probe that takes milliseconds or more

func probeLayers(rc *runConfig, sh traceShape, tn *tracedNode, hist, live []float64, res *result) error {
	for _, probe := range []func(*runConfig, traceShape, *tracedNode, []float64, []float64, *result) error{
		probeServerAllocs, probeEncode, probeEngine, probeWAL, probeStore, probeNHPP, probeDecision, probePipeline, probeFleet, probeLoadgen,
	} {
		if err := probe(rc, sh, tn, hist, live, res); err != nil {
			return err
		}
	}
	return nil
}

// probeServerAllocs counts what one request allocates inside the
// handler: the recorder harness's own allocations, measured on a no-op
// handler, are subtracted.
func probeServerAllocs(_ *runConfig, sh traceShape, tn *tracedNode, _, live []float64, res *result) error {
	const n = 300
	id := tn.twins[1]
	now := tn.engine2.Now()
	planPath := "/v1/workloads/" + id + "/plan?variant=hp&target=" + ftoa(sh.target) + "&horizon=" + ftoa(sh.horizon) + "&now=" + ftoa(now)
	fcPath := "/v1/workloads/" + id + "/forecast?from=" + ftoa(now) + "&to=" + ftoa(now+sh.fcSpan) + "&step=" + ftoa(sh.fcStep)
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	get := func(h http.Handler, path string) func() {
		return func() { h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil)) }
	}
	for _, p := range []struct{ name, path string }{{"plan_hit", planPath}, {"forecast_hit", fcPath}} {
		get(tn.handler, p.path)() // prime the cache: the counted requests are hits
		a, b := allocsPer(n, get(tn.handler, p.path))
		a0, b0 := allocsPer(n, get(noop, p.path))
		res.set("server."+p.name+".allocs_per_req", "count", a-a0)
		res.set("server."+p.name+".bytes_per_req", "bytes", b-b0)
	}
	contentType, body := "application/octet-stream", binaryBody(live[:sh.batch])
	if sh.ndjson {
		contentType, body = "application/x-ndjson", ndjsonBody(live[:sh.batch])
	}
	post := func(h http.Handler) func() {
		return func() {
			req := httptest.NewRequest("POST", "/v1/workloads/alloc-probe/arrivals", bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	// The same batch again and again lands on the engine's merge path, not
	// its append path; allocations of the handler above it are the same.
	a, _ := allocsPer(n, post(tn.handler))
	a0, _ := allocsPer(n, post(noop))
	res.set("server.ingest.allocs_per_req", "count", a-a0)
	return nil
}

func probeEncode(_ *runConfig, sh traceShape, _ *tracedNode, _, live []float64, res *result) error {
	ts := live[:sh.batch]
	formats := []struct {
		name   string
		body   []byte
		decode func(r *bytes.Reader) (*encode.Batch, error)
	}{
		{"binary", binaryBody(ts), func(r *bytes.Reader) (*encode.Batch, error) { return encode.DecodeBinary(r, engine.ValidateTimestamps) }},
		{"ndjson", ndjsonBody(ts), func(r *bytes.Reader) (*encode.Batch, error) { return encode.DecodeNDJSON(r, engine.ValidateTimestamps) }},
		{"json", jsonBody(ts), func(r *bytes.Reader) (*encode.Batch, error) {
			return encode.DecodeJSONArray(r, engine.ValidateTimestamps)
		}},
	}
	for i, f := range formats {
		var failed error
		one := func() {
			b, err := f.decode(bytes.NewReader(f.body))
			if err != nil {
				failed = err
				return
			}
			b.Release()
		}
		ns := perCall(40, 25, one)
		if failed != nil {
			return fmt.Errorf("decoding %s: %w", f.name, failed)
		}
		res.set("encode."+f.name+".ns_per_event", "ns", median(ns)/float64(len(ts)))
		if (i == 1) == sh.ndjson && i < 2 { // the workload's own wire format
			a, _ := allocsPer(200, one)
			res.set("encode.allocs_per_batch", "count", a)
		}
	}
	return nil
}

func probeEngine(_ *runConfig, sh traceShape, tn *tracedNode, _, _ []float64, res *result) error {
	e := tn.engine2
	now := e.Now()
	req := engine.PlanRequest{Variant: "hp", Target: sh.target, Horizon: sh.horizon, Now: now, HasNow: true}
	if _, err := e.Plan(req); err != nil {
		return err
	}
	res.set("engine.plan_hit.ns_p50", "ns", median(perCall(50, 200, func() { e.Plan(req) }))) //nolint:errcheck // primed above
	if _, err := e.ForecastJSON(now, now+sh.fcSpan, sh.fcStep); err != nil {
		return err
	}
	res.set("engine.forecast_hit.ns_p50", "ns", median(perCall(50, 200, func() { e.ForecastJSON(now, now+sh.fcSpan, sh.fcStep) }))) //nolint:errcheck // primed above
	res.set("engine.status.ns_p50", "ns", median(perCall(50, 200, func() { e.Status() })))
	i := 0
	miss, err := timeMs(100, func() error {
		i++
		_, err := e.ForecastJSON(now+float64(i), now+float64(i)+sh.fcSpan, sh.fcStep)
		return err
	})
	if err != nil {
		return err
	}
	res.set("engine.forecast_miss.us_p50", "us", 1000*median(miss))
	marshal, err := timeMs(probeReps, func() error { _, err := e.MarshalState(); return err })
	if err != nil {
		return err
	}
	res.set("engine.marshal_state_ms_p50", "ms", median(marshal))
	return nil
}

func probeWAL(rc *runConfig, sh traceShape, _ *tracedNode, _, live []float64, res *result) error {
	dir, err := rc.dataDir("probe-wal")
	if err != nil {
		return err
	}
	// The workload's own policy; a workload without a data directory has
	// no WAL, and the layer is probed under its default (always).
	policy := sh.node(dir).WALFsync
	reg := metrics.NewRegistry()
	mgr, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		return err
	}
	mgr.Instrument(reg)
	ts := live[:sh.batch]
	chunks := [][]float64{ts}
	appendTimes := func(id string, p wal.SyncPolicy, n int) ([]float64, *wal.Log, error) {
		l, err := mgr.Log(id)
		if err != nil {
			return nil, nil, err
		}
		l.SetSyncPolicy(p)
		seq := uint64(0)
		ms, err := timeMs(n, func() error { seq++; return l.Append(seq, chunks) })
		return ms, l, err
	}
	const appends = 200
	if _, _, err := appendTimes("own-policy", policy, appends); err != nil {
		return err
	}
	fsyncs, _ := reg.Value("robustscaler_wal_fsyncs_total")
	res.set("wal.fsyncs_per_append", "ratio", fsyncs/appends)
	sync, _, err := appendTimes("sync", wal.SyncAlways, appends)
	if err != nil {
		return err
	}
	res.set("wal.append_sync_us_p50", "us", 1000*median(sync))
	nosync, l, err := appendTimes("nosync", wal.SyncOff, appends)
	if err != nil {
		return err
	}
	res.set("wal.append_nosync_us_p50", "us", 1000*median(nosync))
	res.set("wal.bytes_per_event", "bytes", float64(l.Stats().SizeBytes)/float64(appends*len(ts)))

	// Checkpoints: append a stretch, truncate through it.
	tl, err := mgr.Log("truncate")
	if err != nil {
		return err
	}
	tl.SetSyncPolicy(wal.SyncOff)
	seq := uint64(0)
	truncOnly := make([]float64, probeReps)
	for r := range truncOnly {
		for i := 0; i < 40; i++ {
			seq++
			if err := tl.Append(seq, chunks); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := tl.TruncateThrough(seq); err != nil {
			return err
		}
		truncOnly[r] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	res.set("wal.truncate_ms_p50", "ms", median(truncOnly))
	if err := mgr.Close(); err != nil {
		return err
	}

	// Replay: what a boot does with the "nosync" log — reopen, scan,
	// verify and hand every record to the engine.
	mgr, err = wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		return err
	}
	defer mgr.Close()
	rl, err := mgr.Log("nosync")
	if err != nil {
		return err
	}
	start := time.Now()
	st, err := rl.Replay(func(uint64, []float64) error { return nil })
	if err != nil {
		return err
	}
	if st.Events != appends*len(ts) {
		return fmt.Errorf("wal replay returned %d events, %d were appended", st.Events, appends*len(ts))
	}
	res.set("wal.replay_events_per_s", "1/s", float64(st.Events)/time.Since(start).Seconds())
	return nil
}

func probeStore(rc *runConfig, sh traceShape, tn *tracedNode, hist, live []float64, res *result) error {
	dir, err := rc.dataDir("probe-store")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	st.Instrument(reg)
	blob, err := tn.engine2.MarshalState()
	if err != nil {
		return err
	}
	const workloads = 8
	changed := make([]store.Workload, workloads)
	for i := range changed {
		changed[i] = store.Workload{ID: fmt.Sprintf("w%d", i), State: blob}
	}
	var written int
	commits, err := timeMs(probeReps, func() error {
		cs, err := st.Commit(changed, nil)
		written = cs.Written
		return err
	})
	if err != nil {
		return err
	}
	res.set("store.commit_ms_p50", "ms", median(commits))
	bytesWritten, _ := reg.Value("robustscaler_store_bytes_written_total")
	res.set("store.bytes_per_commit", "bytes", bytesWritten/probeReps)
	res.set("store.files_per_commit", "count", float64(written))
	load, err := timeMs(1, func() error { _, err := st.Load(); return err })
	if err != nil {
		return err
	}
	res.set("store.load_ms", "ms", load[0])

	// Foreground stall: ingest acks over the socket in the 100 ms after a
	// snapshot was triggered on the same node.
	node, l := tn.node, tn.lane
	if node.DataDir() == "" {
		sdir, err := rc.dataDir("probe-stall")
		if err != nil {
			return err
		}
		opts := sh.node("")
		opts.DataDir = sdir
		if node, err = fleet.NewNode("stall", opts); err != nil {
			return err
		}
		defer node.Close()
		srv := httptest.NewServer(node.Handler())
		defer srv.Close()
		if l, err = dialLane(srv.Listener.Addr().String()); err != nil {
			return err
		}
		defer l.close()
		if _, err := l.mustOK(ingestBinary("stall-probe", hist), "seeding the stall probe"); err != nil {
			return err
		}
	}
	var stall []float64
	off := 0
	for cycle := 0; cycle < 6; cycle++ {
		done := make(chan error, 1)
		go func() { done <- node.SnapshotNow() }()
		until := time.Now().Add(durableStallHorizon)
		for time.Now().Before(until) && off+sh.batch <= len(live) {
			ts := live[off : off+sh.batch]
			off += sh.batch
			start := time.Now()
			if _, err := l.mustOK(ingestBinary("stall-probe", ts), "stall probe ingest"); err != nil {
				return err
			}
			stall = append(stall, float64(time.Since(start))/float64(time.Millisecond))
		}
		if err := <-done; err != nil {
			return err
		}
	}
	res.set("store.snapshot_stall_ms_p99", "ms", pct(stall, 0.99))
	return nil
}

// engineSeries bins arrivals the way the engine does before a fit: on
// the absolute Δt grid, one bin past the last arrival.
func engineSeries(arr []float64, dt float64) *timeseries.Series {
	start := float64(int64(arr[0]/dt)) * dt
	if start > arr[0] {
		start -= dt
	}
	return timeseries.FromArrivals(arr, start, arr[len(arr)-1]+dt, dt)
}

func probeNHPP(rc *runConfig, sh traceShape, _ *tracedNode, hist, live []float64, res *result) error {
	var series *timeseries.Series
	bin, _ := timeMs(probeReps, func() error { series = engineSeries(hist, sh.dt); return nil })
	res.set("timeseries.bin_ms_p50", "ms", median(bin))

	train := robustscaler.DefaultTrainConfig()
	var period int
	detect, _ := timeMs(probeReps, func() error {
		r, ok := periodicity.Detect(series, train.Periodicity)
		period = 0
		if ok {
			period = r.Period
		}
		return nil
	})
	res.set("periodicity.detect_ms_p50", "ms", median(detect))

	fit := train.Fit
	fit.Period = period
	var model *nhpp.Model
	var coldStats nhpp.FitStats
	cold, err := timeMs(3, func() error {
		var err error
		model, coldStats, err = nhpp.Fit(series.Start, series.Dt, series.Values, fit)
		return err
	})
	if err != nil {
		return err
	}
	res.set("nhpp.fit_cold_ms_p50", "ms", median(cold))
	res.set("nhpp.admm_iters_cold", "count", float64(coldStats.Iterations))

	// The same window slid forward by one refit's worth of new data.
	slid := append(append([]float64(nil), hist...), live[:splitAt(live, hist[len(hist)-1]+sh.slide)]...)
	if cut := slid[len(slid)-1] - sh.history; cut > slid[0] {
		slid = slid[splitAt(slid, cut):]
	}
	next := engineSeries(slid, sh.dt)
	var warmStats nhpp.FitStats
	warm, err := timeMs(3, func() error {
		var err error
		_, warmStats, err = nhpp.FitWarm(next.Start, next.Dt, next.Values, fit, model.WarmState())
		return err
	})
	if err != nil {
		return err
	}
	res.set("nhpp.fit_warm_ms_p50", "ms", median(warm))
	res.set("nhpp.admm_iters_warm", "count", float64(warmStats.Iterations))
	build, _ := timeMs(probeReps, func() error { nhpp.NewModel(series.Start, series.Dt, model.R, period); return nil })
	res.set("nhpp.model_build_ms_p50", "ms", median(build))

	// Through the engine: a run of sliding refits, each followed by the
	// plans and the forecast for the slide after it, scored against what
	// then arrived.
	const slides = 8
	cfg := *engineConfig(sh.dt, sh.history)
	e, err := engine.New(cfg)
	if err != nil {
		return err
	}
	if _, err := e.IngestSortedChunks([][]float64{hist}); err != nil {
		return err
	}
	if _, err := e.Train(); err != nil {
		return err
	}
	histEnd := hist[len(hist)-1]
	replan := sh.slide / 4
	replay := qosReplay{from: histEnd + sh.slide, to: histEnd + (slides+1)*sh.slide, replan: replan, step: sh.fcStep,
		pending: cfg.Pending, service: refitService, seed: rc.seed}
	warmStarted := 0
	for k := 0; k < slides; k++ {
		from, now := histEnd+float64(k)*sh.slide, histEnd+float64(k+1)*sh.slide
		if ts := live[splitAt(live, from):splitAt(live, now)]; len(ts) > 0 {
			if _, err := e.IngestSortedChunks([][]float64{ts}); err != nil {
				return err
			}
		}
		info, err := e.Train()
		if err != nil {
			return err
		}
		if info.WarmStarted {
			warmStarted++
		}
		for j := 0; j < 4; j++ {
			p, err := e.Plan(engine.PlanRequest{Variant: "hp", Target: sh.target, Horizon: sh.slide, Now: now + float64(j)*replan, HasNow: true})
			if err != nil {
				return err
			}
			replay.plans = append(replay.plans, *p)
		}
		pts, err := e.Forecast(now, now+sh.slide, sh.fcStep)
		if err != nil {
			return err
		}
		replay.forecasts = append(replay.forecasts, pts)
	}
	for _, t := range live[splitAt(live, replay.from):splitAt(live, replay.to)] {
		replay.queries = append(replay.queries, sim.Query{Arrival: t, Service: refitService})
	}
	var score qosScore
	if err := score.add(replay); err != nil {
		return err
	}
	res.set("nhpp.warm_start_ratio", "ratio", float64(warmStarted)/slides)
	res.set("nhpp.fit_wape", "ratio", score.wape())
	res.set("decision.hp_hit_rate", "ratio", score.hitRate())
	res.set("decision.hp_relative_cost", "ratio", score.relativeCost())
	return nil
}

func probeDecision(_ *runConfig, sh traceShape, tn *tracedNode, _, _ []float64, res *result) error {
	e := tn.engine2
	now := e.Now()
	var entries int
	i := 0
	rt, err := timeMs(probeReps, func() error {
		i++
		p, err := e.Plan(engine.PlanRequest{Variant: "rt", Target: 1, Horizon: sh.horizon, Now: now + 1000 + float64(i), HasNow: true})
		if err == nil {
			entries = len(p.Plan)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("decision.rt_mc_ms_p50", "ms", median(rt))
	mc := e.EngineConfig().MCSamples
	res.set("decision.mc_samples_per_s", "1/s", float64(entries*mc)/(median(rt)/1000))

	rng := newRand(1)
	xi, tau := make([]float64, mc), make([]float64, mc)
	for k := range xi {
		xi[k] = 30 + 10*rng.ExpFloat64()
		tau[k] = 13
	}
	res.set("decision.solve_rt_us_p50", "us", median(perCall(40, 10, func() { decision.SolveRT(xi, tau, 1) }))/1000)
	return nil
}

func probePipeline(_ *runConfig, _ traceShape, tn *tracedNode, _, _ []float64, res *result) error {
	var dec pipeline.Decider
	in := pipeline.DecideInput{Now: 1, Lambda: 12.5, Lead: 28, Target: 0.9, Current: 10}
	res.set("pipeline.decide_ns_p50", "ns", median(perCall(50, 200, func() {
		in.Now++
		dec.Decide(in)
	})))
	// Enable the background path on the twins and run the sweep by hand.
	for _, id := range tn.twins {
		e, _ := tn.node.Registry().Get(id)
		ec := e.EngineConfig()
		ec.Autoscale.Enabled = true
		if _, err := e.SetEngineConfig(ec); err != nil {
			return err
		}
	}
	mgr := tn.node.Server().Pipelines()
	var decided int
	sweep, err := timeMs(10, func() error {
		var failed int
		decided, failed = mgr.SweepOnce()
		if failed > 0 {
			return fmt.Errorf("autoscale sweep: %d of %d decisions failed", failed, decided)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("pipeline.sweep_ms_p50", "ms", median(sweep))
	res.set("pipeline.actuations_per_sweep", "count", float64(decided))
	return nil
}

// probeFleet puts one request through Router.Handler and through the
// owning Node.Handler: the difference is what the routing layer costs.
// No end-to-end workload runs -fleet-nodes > 1.
func probeFleet(_ *runConfig, sh traceShape, _ *tracedNode, hist, _ []float64, res *result) error {
	nodes := make([]*fleet.Node, 2)
	for i := range nodes {
		n, err := fleet.NewNode(fmt.Sprintf("n%d", i), fleet.NodeOptions{Engine: engineConfig(sh.dt, sh.history)})
		if err != nil {
			return err
		}
		defer n.Close()
		nodes[i] = n
	}
	router, err := fleet.NewRouter(nodes, fleet.RouterOptions{})
	if err != nil {
		return err
	}
	const id = "route-probe"
	seed := httptest.NewRequest("POST", arrivalsPath(id), bytes.NewReader(binaryBody(hist[:min(len(hist), 1024)])))
	seed.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, seed)
	if rec.Code != 200 {
		return fmt.Errorf("seeding through the router: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var owner http.Handler
	for _, n := range nodes {
		if n.Name() == router.Owner(id) {
			owner = n.Handler()
		}
	}
	path := "/v1/workloads/" + id + "/status"
	get := func(h http.Handler) func() {
		return func() { h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil)) }
	}
	routed := median(perCall(50, 50, get(router.Handler())))
	direct := median(perCall(50, 50, get(owner)))
	res.set("fleet.route.self_us_p50", "us", (routed-direct)/1000)
	ra, _ := allocsPer(300, get(router.Handler()))
	da, _ := allocsPer(300, get(owner))
	res.set("fleet.route.allocs_per_req", "count", ra-da)

	rg := ring.New(ring.Config{})
	for i := 0; i < 4; i++ {
		if err := rg.Add(fmt.Sprintf("n%d", i)); err != nil {
			return err
		}
	}
	k := 0
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("workload-%d", i)
	}
	res.set("ring.owner_ns_p50", "ns", median(perCall(50, 500, func() { k++; rg.Owner(keys[k%len(keys)]) })))
	return nil
}

// probeLoadgen measures the open-loop generator's own lateness against
// an idle server: requests every 5 ms, each answered long before the
// next is due, so all lag is the generator's.
func probeLoadgen(_ *runConfig, _ traceShape, tn *tracedNode, _, _ []float64, res *result) error {
	req := getRequest("/v1/workloads/" + tn.twins[0] + "/status")
	ops := make([]openOp, 200)
	for i := range ops {
		ops[i] = openOp{due: time.Duration(i) * 5 * time.Millisecond, class: opQuery, req: req, what: "status"}
	}
	out := runOpenLane(tn.lane, time.Now().Add(time.Millisecond), ops, 0)
	if out.rec.failed > 0 {
		return fmt.Errorf("loadgen probe: %v", out.rec.problems)
	}
	res.set("loadgen.sched_lag_ms_p99", "ms", pct(out.lag, 0.99))
	return nil
}
