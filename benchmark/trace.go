package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"robustscaler/internal/decision"
	"robustscaler/internal/encode"
	"robustscaler/internal/engine"
	"robustscaler/internal/fleet"
	"robustscaler/internal/nhpp"
	"robustscaler/internal/pipeline"
	"robustscaler/internal/wal"
)

// The traced pass. End-to-end numbers never come from here: this pass
// boots, inside the benchmark's own process, the stack scalerd boots
// (fleet.NewNode(...).Handler() behind a loopback listener) and replays
// a seeded sample of the workload's request classes at successive
// depths against twin workloads fed the identical sequence:
//
//	depth 0  real socket
//	depth 1  Handler.ServeHTTP with a recorder
//	depth 2  encode.Decode* + Engine.IngestSortedChunks / Engine.Plan /
//	         Engine.ForecastJSON / Controller.Recommend / Engine.Status
//	depth 3  wal.Log.Append / decision.* / Decider.Decide
//
// Every call is a span. A layer's self time is its span minus the spans
// of the next depth; nothing inside scalerd is instrumented, so "self"
// is known only as far down as public functions reach.

// traceShape is what distinguishes one workload's traced pass from
// another's: the node configuration its scalerd runs with and the shape
// of its data and requests.
type traceShape struct {
	node        func(dataDir string) fleet.NodeOptions
	dataDir     bool
	dt, history float64
	batch       int  // events per ingest request
	ndjson      bool // ingest wire format (binary otherwise)
	horizon     float64
	target      float64
	fcSpan      float64 // forecast [now, now+fcSpan) at fcStep
	fcStep      float64
	slide       float64 // seconds of new data per sliding refit
	rate        float64 // mean arrivals per second
	// arrivals returns the history and at least liveEvents arrivals after
	// it, both in absolute seconds.
	arrivals func(seed int64, liveEvents int) (hist, live []float64)
}

func poisson(seed int64, start, rate float64, n int) []float64 {
	d := durableStream{rng: newRand(seed), clock: start}
	out := make([]float64, n)
	for i := range out {
		d.clock += d.rng.ExpFloat64() / rate
		out[i] = d.clock
	}
	return out
}

// fromGenerator draws a periodic trace long enough to hold the history
// and liveEvents arrivals after it.
func fromGenerator(seed int64, start, history, level float64, liveEvents int, periods ...float64) (hist, live []float64) {
	liveSpan := 1.5*float64(liveEvents)/level + 3600
	g := periodic("trace", subSeed(seed, 0), start, start+history+liveSpan, level, periods...)
	arr := arrivalsOf(g.Generate(subSeed(seed, 100)))
	i := splitAt(arr, start+history)
	return arr[:i], arr[i:]
}

var traceShapes = map[string]func() traceShape{
	"ingest_durable": func() traceShape {
		return traceShape{
			dataDir: true, dt: 60, history: durableHistory, batch: durableBatch,
			horizon: 5, target: 0.9, fcSpan: 600, fcStep: 60, slide: 60, rate: durableRate,
			node: func(dir string) fleet.NodeOptions {
				return fleet.NodeOptions{Engine: engineConfig(60, durableHistory), DataDir: dir, WALFsync: wal.SyncAlways}
			},
			arrivals: func(seed int64, liveEvents int) ([]float64, []float64) {
				n := int(durableHistory * durableRate)
				all := poisson(seed, epoch0, durableRate, n+liveEvents)
				return all[:n], all[n:]
			},
		}
	},
	"query_steady": func() traceShape {
		return traceShape{
			dt: 60, history: 28 * 86400, batch: querySinkBatch,
			horizon: queryHorizon, target: queryTarget, fcSpan: 86400, fcStep: 60, slide: 600, rate: queryLevel,
			node: func(string) fleet.NodeOptions { return fleet.NodeOptions{Engine: engineConfig(60, 28*86400)} },
			arrivals: func(seed int64, liveEvents int) ([]float64, []float64) {
				return fromGenerator(seed, epoch0, queryHistory, queryLevel, liveEvents, 7200)
			},
		}
	},
	"refit_qos": func() traceShape {
		return traceShape{
			dataDir: true, dt: refitDt, history: refitHistory, batch: int(refitSlide * refitLevel),
			horizon: refitSlide, target: refitTarget, fcSpan: refitSlide, fcStep: refitDt, slide: refitSlide, rate: refitLevel,
			node: func(dir string) fleet.NodeOptions {
				return fleet.NodeOptions{Engine: engineConfig(refitDt, refitHistory), DataDir: dir, WALFsync: wal.SyncInterval}
			},
			arrivals: func(seed int64, liveEvents int) ([]float64, []float64) {
				return fromGenerator(seed, epoch0, refitHistory, refitLevel, liveEvents, 86400, 8*3600)
			},
		}
	},
	"mixed_live": func() traceShape {
		return traceShape{
			dataDir: true, dt: mixedDt, history: mixedHistory, batch: int(mixedLevel * mixedIngestEvery.Seconds()), ndjson: true,
			horizon: mixedPlanHorizon, target: 0.9, fcSpan: 3600, fcStep: mixedDt, slide: 4 * mixedDt, rate: mixedLevel,
			node: func(dir string) fleet.NodeOptions {
				return fleet.NodeOptions{Engine: engineConfig(mixedDt, mixedHistory), DataDir: dir, WALFsync: wal.SyncInterval, Actuator: "sim"}
			},
			arrivals: func(seed int64, liveEvents int) ([]float64, []float64) {
				// Anchored to the wall clock like the workload itself.
				return fromGenerator(seed, unixSeconds(time.Now())-mixedHistory, mixedHistory, mixedLevel, liveEvents, mixedCycle, mixedCycle/3)
			},
		}
	},
}

// routeClass is one request class of the depth ladder.
type routeClass int

const (
	rcIngest routeClass = iota
	rcPlanHit
	rcPlanMiss
	rcForecastHit
	rcRecommendation
	rcStatus
	numRouteClasses
)

var routeClassNames = [numRouteClasses]string{"ingest", "plan_hit", "plan_miss", "forecast_hit", "recommendation", "status"}

// ladder holds, per route class and layer, each request's self time.
type ladder struct {
	total [numRouteClasses][]float64            // depth-0 span, µs
	self  [numRouteClasses]map[string][]float64 // layer → µs per request
}

func (ld *ladder) add(c routeClass, layer string, d time.Duration) {
	if ld.self[c] == nil {
		ld.self[c] = map[string][]float64{}
	}
	if d < 0 {
		d = 0 // two executions of one request: the deeper one can come out slower
	}
	ld.self[c][layer] = append(ld.self[c][layer], float64(d)/float64(time.Microsecond))
}

// traceSamples is how many requests of each class the ladder replays:
// 2 000 at the declared window, fewer under -quick.
func traceSamples(seconds float64) int {
	n := int(seconds * 150)
	if n < 100 {
		n = 100
	}
	if n > 2000 {
		n = 2000
	}
	return n
}

// tracedNode is the in-process stack and its three twin workloads.
type tracedNode struct {
	node    *fleet.Node
	handler http.Handler
	srv     *http.Server
	lane    *lane
	twins   [3]string // the workload each depth drives
	engine2 *engine.Engine
	ctrl2   *pipeline.Controller
	// scratch is depth 3 of ingest, a log of its own under walMgr; both nil
	// when the shape has no WAL.
	scratch *wal.Log
	walMgr  *wal.Manager
}

func (tn *tracedNode) close() {
	if tn.walMgr != nil {
		_ = tn.walMgr.Close() // a scratch log: nothing to lose
	}
	tn.lane.close()
	_ = tn.srv.Close()  // listener and idle connections; nothing in flight
	_ = tn.node.Close() // final snapshot of a scratch directory: its outcome is irrelevant
}

func bootTracedNode(rc *runConfig, sh traceShape, hist []float64) (*tracedNode, error) {
	dir := ""
	if sh.dataDir {
		var err error
		if dir, err = rc.dataDir("trace-node"); err != nil {
			return nil, err
		}
	}
	node, err := fleet.NewNode("trace", sh.node(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tn := &tracedNode{node: node, handler: node.Handler(), twins: [3]string{"twin-0", "twin-1", "twin-2"}}
	tn.srv = &http.Server{Handler: tn.handler}
	go tn.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed from close()
	if tn.lane, err = dialLane(ln.Addr().String()); err != nil {
		return nil, err
	}
	for _, id := range tn.twins {
		e, err := node.Registry().GetOrCreate(id)
		if err != nil {
			return nil, err
		}
		if _, err := e.IngestSortedChunks([][]float64{hist}); err != nil {
			return nil, err
		}
		if _, err := e.Train(); err != nil {
			return nil, fmt.Errorf("training %s: %w", id, err)
		}
	}
	tn.engine2, _ = node.Registry().Get(tn.twins[2])
	tn.ctrl2 = node.Server().Pipelines().For(tn.twins[2], tn.engine2)

	if sh.dataDir {
		wdir, err := rc.dataDir("trace-wal")
		if err != nil {
			return nil, err
		}
		if tn.walMgr, err = wal.Open(wal.Options{Dir: wdir, Policy: sh.node(dir).WALFsync}); err != nil {
			return nil, err
		}
		if tn.scratch, err = tn.walMgr.Log("scratch"); err != nil {
			return nil, err
		}
	}
	return tn, nil
}

// serveRecorded is depth 1: the handler, a recorder, no socket.
func (tn *tracedNode) serveRecorded(method, path, contentType string, body []byte) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	tn.handler.ServeHTTP(rec, req)
	d := time.Since(start)
	if rec.Code != 200 {
		return d, fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, rec.Code, rec.Body.String())
	}
	return d, nil
}

// overSocket is depth 0.
func (tn *tracedNode) overSocket(req []byte, what string) (time.Duration, int, error) {
	start := time.Now()
	status, body, err := tn.lane.do(req)
	d := time.Since(start)
	if err != nil {
		return d, 0, fmt.Errorf("%s: %w", what, err)
	}
	if status != 200 {
		return d, 0, fmt.Errorf("%s: HTTP %d: %.200s", what, status, body)
	}
	return d, len(body), nil
}

// runLadder replays n requests of every class at every depth, recording
// spans into tr. It returns the ladder, the mean response size of the
// read classes, and the time spent recording.
func runLadder(tn *tracedNode, sh traceShape, live []float64, now float64, n int, tr *tracer) (*ladder, float64, time.Duration, error) {
	ld := &ladder{}
	var respBytes, respCount int
	var recording time.Duration
	reqID := 0
	// record nests one request's depth measurements into a span tree and
	// files each layer's self time.
	type layerSpan struct {
		layer, name string
		d           time.Duration
		parent      int // index into the same slice, -1 for the root
	}
	record := func(c routeClass, spans []layerSpan) {
		began := time.Now()
		defer func() { recording += time.Since(began) }()
		reqID++
		// Children's time, per parent.
		childSum := make([]time.Duration, len(spans))
		for _, s := range spans {
			if s.parent >= 0 {
				childSum[s.parent] += s.d
			}
		}
		base := began.Add(-spans[0].d) // when the request's outermost span began, give or take its deeper twins
		idx := make([]int, len(spans))
		for i, s := range spans {
			if i == 0 {
				ld.total[c] = append(ld.total[c], float64(s.d)/float64(time.Microsecond))
			}
			ld.add(c, s.layer, s.d-childSum[i])
			parent := -1
			if s.parent >= 0 {
				parent = idx[s.parent]
			}
			idx[i] = tr.add(s.name, s.layer, reqID, parent, base, s.d)
			if parent >= 0 {
				tr.nest(idx[i])
			}
		}
	}

	path := func(depth int, suffix string) string { return "/v1/workloads/" + tn.twins[depth] + suffix }
	contentType := "application/octet-stream"
	decode := encode.DecodeBinary
	if sh.ndjson {
		contentType, decode = "application/x-ndjson", encode.DecodeNDJSON
	}

	// ingest
	if len(live) < n*sh.batch {
		return nil, 0, 0, fmt.Errorf("trace holds %d live arrivals, the ladder needs %d", len(live), n*sh.batch)
	}
	for r := 0; r < n; r++ {
		ts := live[r*sh.batch : (r+1)*sh.batch]
		body := binaryBody(ts)
		if sh.ndjson {
			body = ndjsonBody(ts)
		}
		d0, _, err := tn.overSocket(postRequest(path(0, "/arrivals"), contentType, body), "ingest")
		if err != nil {
			return nil, 0, 0, err
		}
		d1, err := tn.serveRecorded("POST", path(1, "/arrivals"), contentType, body)
		if err != nil {
			return nil, 0, 0, err
		}
		start := time.Now()
		batch, err := decode(bytes.NewReader(body), engine.ValidateTimestamps)
		dEnc := time.Since(start)
		if err != nil {
			return nil, 0, 0, err
		}
		start = time.Now()
		_, err = tn.engine2.IngestSortedChunks(batch.Chunks)
		dEng := time.Since(start)
		batch.Release()
		if err != nil {
			return nil, 0, 0, err
		}
		spans := []layerSpan{
			{"net", "POST arrivals (socket)", d0, -1},
			{"server", "Handler.ServeHTTP arrivals", d1, 0},
			{"encode", "encode.Decode", dEnc, 1},
			{"engine", "Engine.IngestSortedChunks", dEng, 1},
		}
		if tn.scratch != nil {
			start = time.Now()
			err := tn.scratch.Append(uint64(r+1), [][]float64{ts})
			dWal := time.Since(start)
			if err != nil {
				return nil, 0, 0, err
			}
			spans = append(spans, layerSpan{"wal", "wal.Log.Append", dWal, 3})
		}
		record(rcIngest, spans)
	}
	// The twins were ingested into: refit so the read classes see a model
	// that matches, exactly as a caller would.
	for d := range tn.twins {
		e, _ := tn.node.Registry().Get(tn.twins[d])
		if _, err := e.Train(); err != nil {
			return nil, 0, 0, err
		}
	}
	now = math.Max(now, live[n*sh.batch-1])

	query := func(c routeClass, suffix string, engineCall func() (string, string, error), leaf func() (string, string, time.Duration)) error {
		d0, nbytes, err := tn.overSocket(getRequest(path(0, suffix)), routeClassNames[c])
		if err != nil {
			return err
		}
		respBytes += nbytes
		respCount++
		d1, err := tn.serveRecorded("GET", path(1, suffix), "", nil)
		if err != nil {
			return err
		}
		start := time.Now()
		layer, name, err := engineCall()
		d2 := time.Since(start)
		if err != nil {
			return err
		}
		spans := []layerSpan{
			{"net", "GET " + routeClassNames[c] + " (socket)", d0, -1},
			{"server", "Handler.ServeHTTP " + routeClassNames[c], d1, 0},
			{layer, name, d2, 1},
		}
		if leaf != nil {
			l, nm, d3 := leaf()
			spans = append(spans, layerSpan{l, nm, d3, 2})
		}
		record(c, spans)
		return nil
	}
	planSuffix := func(at float64) string {
		return "/plan?variant=hp&target=" + ftoa(sh.target) + "&horizon=" + ftoa(sh.horizon) + "&now=" + ftoa(at)
	}
	planReq := func(at float64) engine.PlanRequest {
		return engine.PlanRequest{Variant: "hp", Target: sh.target, Horizon: sh.horizon, Now: at, HasNow: true}
	}
	model := tn.engine2.Model().NHPP
	ec := tn.engine2.EngineConfig()

	for r := 0; r < n; r++ { // plan hits: one key, asked again and again
		err := query(rcPlanHit, planSuffix(now), func() (string, string, error) {
			_, err := tn.engine2.Plan(planReq(now))
			return "engine", "Engine.Plan (hit)", err
		}, nil)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	for r := 0; r < n; r++ { // plan misses: a fresh now each time
		at := now + float64(r+1)
		err := query(rcPlanMiss, planSuffix(at), func() (string, string, error) {
			_, err := tn.engine2.Plan(planReq(at))
			return "engine", "Engine.Plan (miss)", err
		}, func() (string, string, time.Duration) {
			start := time.Now()
			hpPlan(model, at, ec.Dt, ec.Pending, sh.target, sh.horizon)
			return "decision", "decision.Horizon quantiles", time.Since(start)
		})
		if err != nil {
			return nil, 0, 0, err
		}
	}
	fcSuffix := "/forecast?from=" + ftoa(now) + "&to=" + ftoa(now+sh.fcSpan) + "&step=" + ftoa(sh.fcStep)
	for r := 0; r < n; r++ {
		err := query(rcForecastHit, fcSuffix, func() (string, string, error) {
			_, err := tn.engine2.ForecastJSON(now, now+sh.fcSpan, sh.fcStep)
			return "engine", "Engine.ForecastJSON (hit)", err
		}, nil)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	var dec pipeline.Decider
	for r := 0; r < n; r++ {
		err := query(rcRecommendation, "/recommendation", func() (string, string, error) {
			_, err := tn.ctrl2.Recommend()
			return "pipeline", "Controller.Recommend", err
		}, func() (string, string, time.Duration) {
			start := time.Now()
			at := tn.engine2.Now()
			lambda, _ := tn.engine2.ExpectedArrivals(at, at+ec.Pending+pipeline.DefaultInterval.Seconds())
			dec.Decide(pipeline.DecideInput{Now: at, Lambda: lambda, Lead: ec.Pending + pipeline.DefaultInterval.Seconds(), Target: ec.HPTarget, Knobs: ec.Autoscale})
			return "engine", "Engine.ExpectedArrivals + Decider.Decide", time.Since(start)
		})
		if err != nil {
			return nil, 0, 0, err
		}
	}
	for r := 0; r < n; r++ {
		err := query(rcStatus, "/status", func() (string, string, error) {
			tn.engine2.Status()
			return "engine", "Engine.Status", nil
		}, nil)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return ld, float64(respBytes) / float64(respCount), recording, nil
}

// hpPlan is the decision-layer work inside an hp plan miss, called
// directly: invert the i-th arrival's α-quantile through the horizon
// until it leaves the planning window.
func hpPlan(in nhpp.Intensity, now, dt, tau, target, horizon float64) int {
	h := decision.NewHorizon(in, now, dt/4, 0)
	n := 0
	for i := 1; i <= 10000; i++ {
		q, ok := h.QuantileArrival(i, 1-target)
		if !ok || q-tau > now+horizon {
			break
		}
		n++
	}
	return n
}

// allocsPer runs fn n times and returns the heap objects and bytes
// allocated per call.
func allocsPer(n int, fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// perCall times k back-to-back calls, reps times, and returns each
// repetition's per-call mean in ns — for calls too short to bracket with
// two clock reads.
func perCall(reps, k int, fn func()) []float64 {
	out := make([]float64, reps)
	for r := range out {
		start := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		out[r] = float64(time.Since(start)) / float64(k)
	}
	return out
}

func runTraced(rc *runConfig, workload string) (*result, error) {
	mk, ok := traceShapes[workload]
	if !ok {
		return nil, fmt.Errorf("no traced pass for workload %q", workload)
	}
	sh := mk()
	res := newResult()
	n := traceSamples(rc.seconds)
	// Enough live arrivals for the ladder's ingests and for the probes'
	// sliding refits, whichever needs more.
	hist, live := sh.arrivals(rc.seed, max(n*sh.batch, int(20*sh.slide*sh.rate))+4096)
	histEnd := hist[len(hist)-1]

	tn, err := bootTracedNode(rc, sh, hist)
	if err != nil {
		return nil, err
	}
	defer tn.close()

	tr := newTracer()
	ld, respBytes, recording, err := runLadder(tn, sh, live, histEnd, n, tr)
	if err != nil {
		return nil, err
	}
	res.attempted += n * int(numRouteClasses) * 3

	us := func(c routeClass, layer string) float64 { return median(ld.self[c][layer]) }
	res.set("net.ingest.self_us_p50", "us", us(rcIngest, "net"))
	var netQuery []float64
	for c := rcPlanHit; c < numRouteClasses; c++ {
		netQuery = append(netQuery, ld.self[c]["net"]...)
	}
	res.set("net.query.self_us_p50", "us", median(netQuery))
	res.set("net.resp_bytes_per_query", "bytes", respBytes)
	res.set("server.ingest.self_us_p50", "us", us(rcIngest, "server"))
	res.set("server.plan_hit.self_us_p50", "us", us(rcPlanHit, "server"))
	res.set("server.plan_miss.self_us_p50", "us", us(rcPlanMiss, "server"))
	res.set("server.forecast_hit.self_us_p50", "us", us(rcForecastHit, "server"))
	res.set("server.recommendation.self_us_p50", "us", us(rcRecommendation, "server"))
	res.set("encode.decode_us_p50", "us", us(rcIngest, "encode"))
	res.set("engine.ingest.self_us_p50", "us", us(rcIngest, "engine"))
	res.set("engine.plan_miss_hp.us_p50", "us", us(rcPlanMiss, "engine")+us(rcPlanMiss, "decision"))
	res.set("decision.hp_plan_us_p50", "us", us(rcPlanMiss, "decision"))
	res.set("pipeline.recommend_us_p50", "us", us(rcRecommendation, "pipeline")+us(rcRecommendation, "engine"))

	// The budget: per class, the layers' median self times against the
	// median traced total.
	fmt.Fprintf(rc.out, "== %s (traced pass, %d requests per class and depth)\n", workload, n)
	fmt.Fprintf(rc.out, "  %-15s %10s   layer self times, µs (p50)\n", "class", "total µs")
	var worst float64
	for c := routeClass(0); c < numRouteClasses; c++ {
		total := median(ld.total[c])
		layers := make([]string, 0, len(ld.self[c]))
		for l := range ld.self[c] {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var sum float64
		line := ""
		for _, l := range layers {
			v := median(ld.self[c][l])
			sum += v
			line += fmt.Sprintf(" %s=%.2f", l, v)
		}
		residual := 100 * (total - sum) / total
		flag := ""
		if math.Abs(residual) > 10 {
			flag = "  UNATTRIBUTED"
		}
		fmt.Fprintf(rc.out, "  %-15s %10.2f  %s  residual=%.1f%%%s\n", routeClassNames[c], total, line, residual, flag)
		if c == rcIngest || c == rcPlanHit || c == rcForecastHit || c == rcRecommendation {
			worst = math.Max(worst, math.Abs(residual))
		}
	}
	res.set("trace.budget_residual_pct", "%", worst)
	// Spans are recorded after the calls they time, so recording never
	// sits inside a measurement; what it costs is its own time, given here
	// against the time of the requests it recorded.
	var traced float64
	for c := routeClass(0); c < numRouteClasses; c++ {
		for _, us := range ld.total[c] {
			traced += us
		}
	}
	res.set("trace.overhead_pct", "%", 100*float64(recording)/float64(time.Microsecond)/traced)

	// Counts, read off the node's own registry after the ladder.
	reg := tn.node.Server().Metrics()
	ratio := func(hits, misses string) float64 {
		h, _ := reg.Value(hits)
		m, _ := reg.Value(misses)
		return h / (h + m)
	}
	res.set("engine.plan_cache.hit_ratio", "ratio", ratio("robustscaler_plan_cache_hits_total", "robustscaler_plan_cache_misses_total"))
	res.set("engine.forecast_cache.hit_ratio", "ratio", ratio("robustscaler_forecast_cache_hits_total", "robustscaler_forecast_cache_misses_total"))

	if err := probeLayers(rc, sh, tn, hist, live, res); err != nil {
		return nil, err
	}

	if err := res.finite(); err != nil {
		return nil, err
	}

	// Spans and the per-layer summary, written as the pass ends.
	out := filepath.Join(rc.root, buildDirName)
	if err := tr.writeChrome(filepath.Join(out, "trace-"+workload+".json")); err != nil {
		return nil, err
	}
	summary, err := json.MarshalIndent(map[string]any{"workload": workload, "seed": rc.seed, "requests_per_class": n, "metrics": res.metrics, "units": res.units}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(out, "layers-"+workload+".json"), summary, 0o644); err != nil {
		return nil, err
	}

	res.printMetrics(rc.out)
	return res, nil
}
