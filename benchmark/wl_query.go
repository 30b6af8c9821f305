package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"robustscaler/internal/gen"
)

// query_steady: closed loop, 2 clients × 32 trained workloads, no data
// directory, a fixed request cycle with a designed cache mix. See
// README.md for why.
const (
	queryClients   = 2
	queryPerClient = 32
	queryHistory   = 6 * gen.Hour
	queryLevel     = 0.5 // mean qps of each workload's history
	queryHorizon   = 600.0
	queryTarget    = 0.9
	querySinkBatch = 16
	// queryReferences is how many workloads per client are checked against
	// the in-process reference engine; every other workload is checked for
	// self-consistency (a repeated request gets identical bytes).
	queryReferences = 2
	// planCacheCap mirrors the engine's per-workload result-cache bound
	// (engine.maxCachedResults): a store that finds the plan cache this
	// full clears it first. The designed-miss plans fill it, so the model
	// below must know when the designed hits lose their entry.
	planCacheCap = 256
)

// queryStep is one slot of the fixed per-workload request cycle.
type queryStep int

const (
	stepPlanHit queryStep = iota
	stepPlanMiss
	stepForecast
	stepRecommendation
	stepStatus
	stepSinkIngest
)

// queryCycle is the order one workload's requests repeat in: 4 plan
// repeats (designed hits), 2 plans with a fresh now (designed misses),
// 2 forecasts, 1 recommendation, 1 status, plus 1 small ingest into the
// client's sink workload (which no query reads, so it invalidates
// nothing).
var queryCycle = []queryStep{
	stepPlanHit, stepPlanMiss, stepForecast, stepPlanHit, stepRecommendation, stepSinkIngest,
	stepPlanHit, stepPlanMiss, stepForecast, stepPlanHit, stepStatus,
}

// queryWorkload is one trained workload and the harness's model of its
// server-side plan cache.
type queryWorkload struct {
	id      string
	history []float64
	now     float64 // end of the history: the anchor of every explicit now

	planHitReq, forecastReq, recReq, statusReq []byte
	planBody, forecastBody                     []byte // first response, the one all repeats must equal
	misses                                     int    // designed misses issued so far
	missBodies                                 map[float64][]byte

	// Cache model.
	cacheEntries int
	anchorCached bool
	wantPlanHits, wantPlanMisses,
	wantForecastHits, wantForecastMisses int
	forecastCached bool
}

func (q *queryWorkload) modelPlan(anchor bool) {
	if anchor && q.anchorCached {
		q.wantPlanHits++
		return
	}
	q.wantPlanMisses++
	if q.cacheEntries >= planCacheCap {
		q.cacheEntries, q.anchorCached = 0, false
	}
	q.cacheEntries++
	if anchor {
		q.anchorCached = true
	}
}

func (q *queryWorkload) modelForecast() {
	if q.forecastCached {
		q.wantForecastHits++
	} else {
		q.wantForecastMisses++
		q.forecastCached = true
	}
}

func (q *queryWorkload) resetModel() {
	q.cacheEntries, q.anchorCached, q.forecastCached = 0, false, false
	q.wantPlanHits, q.wantPlanMisses, q.wantForecastHits, q.wantForecastMisses = 0, 0, 0, 0
	q.misses = 0
	q.missBodies = map[float64][]byte{}
}

func runQuerySteady(rc *runConfig) (*result, *recorder, error) {
	res := newResult()

	// Inputs.
	targets := make([][]*queryWorkload, queryClients)
	for c := range targets {
		targets[c] = make([]*queryWorkload, queryPerClient)
	}
	_ = inParallel(queryClients, func(c int) error {
		for w := range targets[c] {
			id := fmt.Sprintf("qs-%d-%02d", c, w)
			g := periodic(id, subSeed(rc.seed, c*queryPerClient+w), epoch0, epoch0+queryHistory, queryLevel, 2*gen.Hour)
			q := &queryWorkload{id: id, history: arrivalsOf(g.Generate(subSeed(rc.seed, 1000+c*queryPerClient+w))), now: epoch0 + queryHistory}
			q.planHitReq = getRequest(planPath(id, "hp", queryTarget, queryHorizon) + "&now=" + ftoa(q.now))
			q.forecastReq = getRequest(forecastPath(id, q.now, q.now+gen.Day, 60))
			q.recReq = getRequest("/v1/workloads/" + id + "/recommendation")
			q.statusReq = getRequest("/v1/workloads/" + id + "/status")
			targets[c][w] = q
		}
		return nil
	})
	sinkRNG := make([]*rand.Rand, queryClients)
	sinkClock := make([]float64, queryClients)
	for c := range sinkRNG {
		sinkRNG[c] = newRand(subSeed(rc.seed, 5000+c))
		sinkClock[c] = epoch0
	}
	var ackedEvents int64

	// Set-up: boot, seed each history in one binary POST, train, and prime
	// both caches with the anchor plan and the forecast.
	s, setupS, err := repeatSetup(func(int) (*scalerd, error) {
		s, err := startScalerd(rc.bin, rc.work+"/scalerd.log", "-retrain-every", "0", "-autoscale-every", "0")
		if err != nil {
			return nil, err
		}
		err = onLanes(s, queryClients, func(c int, l *lane) error {
			for _, q := range targets[c] {
				q.resetModel()
				if _, err := l.mustOK(ingestBinary(q.id, q.history), "seeding "+q.id); err != nil {
					return err
				}
				if _, err := l.mustOK(postRequest("/v1/workloads/"+q.id+"/train", "", nil), "training "+q.id); err != nil {
					return err
				}
				body, err := l.mustOK(q.planHitReq, "priming plan "+q.id)
				if err != nil {
					return err
				}
				q.planBody = append([]byte(nil), body...)
				q.modelPlan(true)
				if body, err = l.mustOK(q.forecastReq, "priming forecast "+q.id); err != nil {
					return err
				}
				q.forecastBody = append([]byte(nil), body...)
				q.modelForecast()
			}
			return nil
		})
		if err != nil {
			s.kill()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, nil, err
	}
	defer s.kill()
	res.set(mSetupS, "s", setupS)
	for c := range targets {
		for _, q := range targets[c] {
			ackedEvents += int64(len(q.history))
		}
	}

	lanes, closeLanes, err := dialLanes(s, queryClients)
	if err != nil {
		return nil, nil, err
	}
	defer closeLanes()

	type clientOut struct {
		rec    recorder
		events int64
		n      int // requests issued, carried across phases so the cycle never restarts
	}
	outs := make([]*clientOut, queryClients)
	for c := range outs {
		outs[c] = &clientOut{}
	}
	client := func(c int, until time.Time) {
		l, out := lanes[c], outs[c]
		for ; time.Now().Before(until); out.n++ {
			q := targets[c][out.n%queryPerClient]
			switch queryCycle[(out.n/queryPerClient)%len(queryCycle)] {
			case stepPlanHit:
				q.modelPlan(true)
				if body, ok := out.rec.timed(l, opQuery, time.Now(), q.planHitReq, "plan "+q.id); ok && !bytes.Equal(body, q.planBody) {
					out.rec.fail("plan %s: a repeated explicit-now plan returned different bytes", q.id)
				}
			case stepPlanMiss:
				q.misses++
				now := q.now + float64(q.misses)
				q.modelPlan(false)
				req := getRequest(planPath(q.id, "hp", queryTarget, queryHorizon) + "&now=" + ftoa(now))
				if body, ok := out.rec.timed(l, opQuery, time.Now(), req, "plan "+q.id); ok && len(q.missBodies) < 4 {
					q.missBodies[now] = append([]byte(nil), body...)
				}
			case stepForecast:
				q.modelForecast()
				if body, ok := out.rec.timed(l, opQuery, time.Now(), q.forecastReq, "forecast "+q.id); ok && !bytes.Equal(body, q.forecastBody) {
					out.rec.fail("forecast %s: a repeated forecast returned different bytes", q.id)
				}
			case stepRecommendation:
				out.rec.timed(l, opQuery, time.Now(), q.recReq, "recommendation "+q.id)
			case stepStatus:
				out.rec.timed(l, opQuery, time.Now(), q.statusReq, "status "+q.id)
			case stepSinkIngest:
				ts := make([]float64, querySinkBatch)
				for i := range ts {
					sinkClock[c] += sinkRNG[c].ExpFloat64()
					ts[i] = sinkClock[c]
				}
				if _, ok := out.rec.timed(l, opIngest, time.Now(), ingestBinary(fmt.Sprintf("qs-sink-%d", c), ts), "sink ingest"); ok {
					out.events += querySinkBatch
				}
			}
		}
	}
	phase := func(d time.Duration) {
		until := time.Now().Add(d)
		_ = inParallel(queryClients, func(c int) error { client(c, until); return nil })
	}

	phase(rc.warmup())
	for _, o := range outs { // discard warm-up timings, keep its failures
		o.rec.lat, o.rec.done = [numOpClasses][]float64{}, [numOpClasses][]int64{}
	}
	before, err := lanes[0].scrape()
	if err != nil {
		return nil, nil, err
	}
	respBytes := -(lanes[0].respBytes + lanes[1].respBytes)
	win, err := beginWindow(s)
	if err != nil {
		return nil, nil, err
	}
	phase(rc.window())
	rec := &recorder{}
	for c, o := range outs {
		rec.merge(&o.rec)
		ackedEvents += o.events
		respBytes += lanes[c].respBytes
	}
	if err := win.finish(res, rec); err != nil {
		return nil, nil, err
	}
	if err := s.alive(); err != nil {
		return nil, nil, err
	}

	// Counts: the designed cache mix must come back exactly.
	after, err := lanes[0].scrape()
	if err != nil {
		return nil, nil, err
	}
	var want [4]int
	for c := range targets {
		for _, q := range targets[c] {
			want[0] += q.wantPlanHits
			want[1] += q.wantPlanMisses
			want[2] += q.wantForecastHits
			want[3] += q.wantForecastMisses
		}
	}
	series := [4]string{"robustscaler_plan_cache_hits_total", "robustscaler_plan_cache_misses_total",
		"robustscaler_forecast_cache_hits_total", "robustscaler_forecast_cache_misses_total"}
	var delta [4]float64
	for i, name := range series {
		if got := int(sumSeries(after, name)); got != want[i] && rec.failed == 0 {
			res.violation("%s is %d, the designed request mix implies %d", name, got, want[i])
		}
		delta[i] = sumSeries(after, name) - sumSeries(before, name)
	}
	if got := int64(sumSeries(after, "robustscaler_ingest_events_total")); got != ackedEvents {
		res.violation("robustscaler_ingest_events_total is %d, the harness was acked %d events", got, ackedEvents)
	}

	// Bytes: reference engines fed the same history must render the same
	// plans and forecasts.
	for c := range targets {
		for _, q := range targets[c][:queryReferences] {
			if err := verifyQueryWorkload(q); err != nil {
				res.violation("%v", err)
			}
		}
	}

	// No data directory: a restart restores nothing, so this is the
	// process's boot time — the floor under the other workloads' restarts.
	restartS, err := repeatRestart(s, bootRepeats, func() bool { return true }, nil)
	if err != nil {
		return nil, nil, err
	}
	res.set(mRestartS, "s", restartS)

	res.set(mQueryP50, "ms", median(rec.lat[opQuery]))
	res.set(mTailMs, "ms", rec.windowedTail(win.start, rc.window(), 0.99, opQuery))
	res.set(mIngestAckP50, "ms", median(rec.lat[opIngest]))
	res.absorb(rec)

	report(rc.out, "query_steady", res, rec, [][3]string{
		diag("query_per_s", float64(len(rec.lat[opQuery]))/rc.seconds, "req/s"),
		diag("query_ms_p99", pct(rec.lat[opQuery], 0.99), "ms over the whole window (tail_ms is the median of 5 sub-windows' p99)"),
		diag("engine.plan_cache.hit_ratio", delta[0]/(delta[0]+delta[1]), "ratio in the window (designed 4/6 less cache resets)"),
		diag("engine.forecast_cache.hit_ratio", delta[2]/(delta[2]+delta[3]), "ratio in the window (designed 1)"),
		diag("net.resp_bytes_per_query", float64(respBytes)/float64(rec.attempted), "bytes"),
	})
	return res, rec, nil
}

// verifyQueryWorkload replays one workload's inputs through a reference
// engine and compares the anchor plan, the forecast and the kept
// designed-miss plans byte for byte.
func verifyQueryWorkload(q *queryWorkload) error {
	ref, err := newReferenceEngine(60, 28*gen.Day)
	if err != nil {
		return err
	}
	if err := ref.ingest(q.history); err != nil {
		return err
	}
	if err := ref.train(); err != nil {
		return err
	}
	want, err := ref.planHP(queryTarget, queryHorizon, q.now)
	if err != nil {
		return err
	}
	if err := sameBytes("plan "+q.id, q.planBody, want); err != nil {
		return err
	}
	if want, err = ref.forecast(q.now, q.now+gen.Day, 60); err != nil {
		return err
	}
	if err := sameBytes("forecast "+q.id, q.forecastBody, want); err != nil {
		return err
	}
	for now, got := range q.missBodies {
		if want, err = ref.planHP(queryTarget, queryHorizon, now); err != nil {
			return err
		}
		if err := sameBytes(fmt.Sprintf("plan %s now=%s", q.id, ftoa(now)), got, want); err != nil {
			return err
		}
	}
	return nil
}
