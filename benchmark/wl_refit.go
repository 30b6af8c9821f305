package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"robustscaler/internal/engine"
	"robustscaler/internal/gen"
	"robustscaler/internal/sim"
)

// refit_qos: fixed work, closed loop, 2 clients × 4 workloads with a
// week of history each; cold fits, then a sliding refit → plan →
// forecast loop whose plans are replayed against the trace that follows.
// See README.md for why.
const (
	refitClients   = 2
	refitPerClient = 8
	refitHistory   = 4 * gen.Day
	refitLevel     = 0.2 // mean qps
	refitSlide     = 600.0
	refitReplan    = 150.0 // a fresh hp plan is asked for this often: 4 per slide
	refitPlans     = int(refitSlide / refitReplan)
	refitDt        = 60.0
	refitTarget    = 0.9 // hp hitting-probability target, recorded beside qos_hit_rate
	refitRTBudget  = 1.0 // rt plans' wait budget, seconds
	refitRTEvery   = 4   // every n-th slide also asks for an rt plan
	refitPending   = 13.0
	refitService   = 5.0
	// QoS envelope: a run whose pooled scores leave it is not correct. The
	// bounds sit well outside what seeds 1–40 produce (see README.md), so
	// they catch a fit or a solver that was loosened, not seed noise.
	refitMinHitRate = 0.70
	refitMaxRelCost = 3.5
	refitMaxWAPE    = 0.40
)

// refitSlides is the fixed work for a window of the given length: about
// one slide per workload per second fills it on the reference machine.
func refitSlides(seconds float64) int {
	k := int(math.Round(0.8 * seconds))
	if k < 2 {
		k = 2
	}
	if k > 60 {
		k = 60
	}
	return k
}

type refitWorkload struct {
	id      string
	queries []sim.Query // the whole trace: history, then the live span
	arr     []float64
	histEnd float64
	seedReq []byte
	// What scalerd returned: refitPlans hp plans and one forecast per slide.
	plans, forecasts [][]byte
}

// slideStart is the start of slide k's ingest span.
func (w *refitWorkload) slideStart(k int) float64 { return w.histEnd + float64(k)*refitSlide }

func (w *refitWorkload) span(from, to float64) []float64 {
	return w.arr[splitAt(w.arr, from):splitAt(w.arr, to)]
}

// slideBatches is slide k's new data the way it reaches scalerd: one
// ingest per replan interval, none for an interval nothing arrived in.
func (w *refitWorkload) slideBatches(k int) [][]float64 {
	var out [][]float64
	for j := 0; j < refitPlans; j++ {
		from := w.slideStart(k) + float64(j)*refitReplan
		if ts := w.span(from, from+refitReplan); len(ts) > 0 {
			out = append(out, ts)
		}
	}
	return out
}

func newRefitWorkloads(seed int64, slides int) [][]*refitWorkload {
	out := make([][]*refitWorkload, refitClients)
	for c := range out {
		out[c] = make([]*refitWorkload, refitPerClient)
	}
	histEnd := epoch0 + refitHistory
	end := histEnd + float64(slides+1)*refitSlide
	_ = inParallel(refitClients, func(c int) error {
		for i := range out[c] {
			n := c*refitPerClient + i
			id := fmt.Sprintf("rq-%d-%d", c, i)
			var g gen.Generator
			if i%2 == 0 {
				p := periodic(id, subSeed(seed, n), epoch0, end, refitLevel, gen.Day, 8*gen.Hour)
				p.Span.TrainEnd = histEnd
				g = p
			} else {
				g = noisy(id, subSeed(seed, n), epoch0, histEnd, end, refitLevel)
			}
			w := &refitWorkload{id: id, queries: g.Generate(subSeed(seed, 100+n)), histEnd: histEnd}
			w.arr = arrivalsOf(w.queries)
			w.seedReq = ingestBinary(id, w.span(epoch0, histEnd))
			out[c][i] = w
		}
		return nil
	})
	return out
}

func runRefitQoS(rc *runConfig) (*result, *recorder, error) {
	res := newResult()
	slides := refitSlides(rc.seconds)
	wls := newRefitWorkloads(rc.seed, slides)
	var ackedEvents int64

	s, setupS, err := repeatSetup(func(i int) (*scalerd, error) {
		dir, err := rc.dataDir(fmt.Sprintf("data-%d", i))
		if err != nil {
			return nil, err
		}
		s, err := startScalerd(rc.bin, dir+".log",
			"-data-dir", dir, "-wal-fsync", "interval", "-history", ftoa(refitHistory), "-dt", ftoa(refitDt),
			"-pending", ftoa(refitPending), "-retrain-every", "0", "-autoscale-every", "0", "-snapshot-every", "0")
		if err != nil {
			return nil, err
		}
		err = onLanes(s, refitClients, func(c int, l *lane) error {
			for _, w := range wls[c] {
				if _, err := l.mustOK(w.seedReq, "seeding "+w.id); err != nil {
					return err
				}
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
	for c := range wls {
		for _, w := range wls[c] {
			ackedEvents += int64(len(w.span(epoch0, w.histEnd)))
			w.seedReq = nil
		}
	}

	lanes, closeLanes, err := dialLanes(s, refitClients)
	if err != nil {
		return nil, nil, err
	}
	defer closeLanes()

	// The fixed work. No warm-up: the cold fits are the warm-up a user pays.
	win, err := beginWindow(s)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]recorder, refitClients)
	events := make([]int64, refitClients)
	_ = inParallel(refitClients, func(c int) error {
		l, rec := lanes[c], &recs[c]
		keep := func(dst *[][]byte, body []byte, ok bool) {
			if ok {
				body = append([]byte(nil), body...)
			} else {
				body = nil
			}
			*dst = append(*dst, body)
		}
		for _, w := range wls[c] {
			rec.timed(l, opTrainCold, time.Now(), postRequest("/v1/workloads/"+w.id+"/train", "", nil), "cold train "+w.id)
		}
		for k := 0; k < slides; k++ {
			for _, w := range wls[c] {
				now := w.slideStart(k + 1)
				for _, ts := range w.slideBatches(k) {
					if _, ok := rec.timed(l, opIngest, time.Now(), ingestBinary(w.id, ts), "ingest "+w.id); ok {
						events[c] += int64(len(ts))
					}
				}
				if body, ok := rec.timed(l, opTrainWarm, time.Now(), postRequest("/v1/workloads/"+w.id+"/train", "", nil), "warm train "+w.id); ok {
					var info engine.TrainInfo
					if json.Unmarshal(body, &info) == nil && !info.WarmStarted {
						// The refit ran cold after all: file it where it belongs.
						rec.reclassifyLast(opTrainWarm, opTrainFallback)
					}
				}
				for j := 0; j < refitPlans; j++ {
					body, ok := rec.timed(l, opQuery, time.Now(),
						getRequest(planPath(w.id, "hp", refitTarget, refitSlide)+"&now="+ftoa(now+float64(j)*refitReplan)), "hp plan "+w.id)
					keep(&w.plans, body, ok)
				}
				body, ok := rec.timed(l, opQuery, time.Now(), getRequest(forecastPath(w.id, now, now+refitSlide, refitDt)), "forecast "+w.id)
				keep(&w.forecasts, body, ok)
				if k%refitRTEvery == refitRTEvery-1 {
					rec.timed(l, opPlanRT, time.Now(),
						getRequest(planPath(w.id, "rt", refitRTBudget, refitSlide)+"&now="+ftoa(now)), "rt plan "+w.id)
				}
			}
		}
		return nil
	})
	rec := &recorder{}
	for c := range recs {
		rec.merge(&recs[c])
		ackedEvents += events[c]
	}
	if err := win.finish(res, rec); err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(win.start).Seconds()
	if err := s.alive(); err != nil {
		return nil, nil, err
	}

	m, err := lanes[0].scrape()
	if err != nil {
		return nil, nil, err
	}
	if got := int64(sumSeries(m, "robustscaler_ingest_events_total")); got != ackedEvents {
		res.violation("robustscaler_ingest_events_total is %d, the harness was acked %d events", got, ackedEvents)
	}
	all := refitClients * refitPerClient
	warmRatio := sumSeries(m, "robustscaler_refit_warm_start_total") / float64(all*slides)
	itersPerFit := sumSeries(m, "robustscaler_refit_admm_iterations_total") / sumSeries(m, "robustscaler_refits_total")

	// Scores and the byte gate, on what the run returned.
	var score qosScore
	if rec.failed == 0 {
		for c := range wls {
			for i, w := range wls[c] {
				replay, err := w.replay(slides, subSeed(rc.seed, 200+c*refitPerClient+i))
				if err == nil {
					err = score.add(replay)
				}
				if err != nil {
					res.violation("scoring %s: %v", w.id, err)
				}
			}
		}
		ref := wls[int(uint64(rc.seed)%refitClients)][int(uint64(rc.seed)/refitClients%refitPerClient)]
		if err := verifyRefitWorkload(ref, slides); err != nil {
			res.violation("%v", err)
		}
		hit, cost, wape := score.hitRate(), score.relativeCost(), score.wape()
		res.exact["qos_hit_rate"], res.exact["qos_relative_cost"], res.exact["forecast_wape"] = hit, cost, wape
		if hit < refitMinHitRate || cost > refitMaxRelCost || wape > refitMaxWAPE {
			res.violation("QoS envelope: hit_rate %.4f (min %.2f), relative_cost %.4f (max %.2f), forecast_wape %.4f (max %.2f)",
				hit, refitMinHitRate, cost, refitMaxRelCost, wape, refitMaxWAPE)
		}
	}

	// Snapshot so the restarts restore histories and models from the store.
	if _, err := lanes[0].mustOK(postRequest("/v1/admin/snapshot", "", nil), "final snapshot"); err != nil {
		return nil, nil, err
	}
	restartS, err := repeatRestart(s, restartRepeats, listsWorkloads(s, all), func() error {
		l, err := dialLane(s.addr)
		if err != nil {
			return err
		}
		defer l.close()
		for c := range wls {
			for _, w := range wls[c] {
				body, err := l.mustOK(getRequest("/v1/workloads/"+w.id+"/status"), "restore audit "+w.id)
				if err != nil {
					return err
				}
				var st engine.Status
				if err := json.Unmarshal(body, &st); err != nil {
					return err
				}
				if !st.ModelReady {
					res.violation("after kill -9: %s came back without its model", w.id)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	res.set(mRestartS, "s", restartS)

	// The tail a caller of POST /train sees. The designed cold fits alone
	// are more than a twentieth of all fits, so p95 always lands among the
	// cold ones however many sliding refits fell back to a cold start —
	// p90 of the warm refits would sit on the cliff between the two modes.
	fits := append(append(append([]float64(nil), rec.lat[opTrainCold]...), rec.lat[opTrainWarm]...), rec.lat[opTrainFallback]...)
	trainTail := pct(fits, 0.95)

	// Between 10 % and 35 % of the sliding refits find that the period
	// detector moved by a bin, discard their warm state and run cold — four
	// times the cost, and how many do is decided by the seed's noise, not
	// by the code. Wall-clock throughput and CPU would follow that count
	// (±15 % across seeds), so the gated figures take it out: throughput is
	// the fixed work over the time it takes when every request takes its
	// class's median, and CPU gives each fallback back the difference
	// between a cold and a warm fit (fits are single-threaded and
	// CPU-bound). The raw figures and the count are printed beside them.
	rawOps, rawCPU := res.metrics[mOpsPerS], res.metrics[mCPUPerOp]
	fallbacks := len(rec.lat[opTrainFallback])
	warmP50, coldP50 := median(rec.lat[opTrainWarm]), median(rec.lat[opTrainCold])
	designed := float64(len(rec.lat[opTrainWarm])+fallbacks) * warmP50
	for _, c := range []opClass{opIngest, opQuery, opPlanRT, opTrainCold} {
		designed += float64(len(rec.lat[c])) * median(rec.lat[c])
	}
	ops := float64(rec.total())
	res.set(mOpsPerS, "1/s", refitClients*ops/(designed/1000))
	res.set(mCPUPerOp, "ms", rawCPU-float64(fallbacks)*(coldP50-warmP50)/ops)

	res.set(mIngestAckP50, "ms", median(rec.lat[opIngest]))
	res.set(mQueryP50, "ms", median(rec.lat[opQuery]))
	res.set(mTailMs, "ms", trainTail)
	res.absorb(rec)

	report(rc.out, "refit_qos", res, rec, [][3]string{
		diag("refit_steps_per_s", float64(all*slides)/elapsed, fmt.Sprintf("slides/s (%d workloads × %d slides)", all, slides)),
		diag("train_cold_ms_p50", median(rec.lat[opTrainCold]), "ms"),
		diag("train_warm_ms_p50", median(rec.lat[opTrainWarm]), "ms"),
		diag("train_ms_p95", trainTail, fmt.Sprintf("ms over all %d fits (= tail_ms)", len(fits))),
		diag("ops_per_s, wall clock", rawOps, "1/s"),
		diag("cpu_ms_per_op, unadjusted", rawCPU, "ms"),
		diag("cold fallbacks", float64(fallbacks), fmt.Sprintf("of %d sliding refits", all*slides)),
		diag("decision_rt_ms_p50", median(rec.lat[opPlanRT]), "ms"),
		diag("qos_hit_rate", score.hitRate(), fmt.Sprintf("ratio (target %g)", refitTarget)),
		diag("qos_relative_cost", score.relativeCost(), "ratio vs reactive"),
		diag("forecast_wape", score.wape(), "ratio vs realised counts"),
		diag("nhpp.admm_iters_per_fit", itersPerFit, "count (scraped)"),
		diag("nhpp.warm_start_ratio", warmRatio, "share of sliding refits that warm-started (scraped)"),
	})
	return res, rec, nil
}

// replay decodes what scalerd returned for the workload into the form
// the scorer takes: plans from slide 1's start onwards, every
// refitReplan seconds, against the queries of the same span.
func (w *refitWorkload) replay(slides int, seed int64) (qosReplay, error) {
	r := qosReplay{
		from: w.slideStart(1), to: w.slideStart(slides + 1), replan: refitReplan, step: refitDt,
		pending: refitPending, service: refitService, seed: seed,
		plans: make([]engine.Plan, len(w.plans)), forecasts: make([][]engine.ForecastPoint, len(w.forecasts)),
	}
	r.queries = w.queries[splitAt(w.arr, r.from):splitAt(w.arr, r.to)]
	for k := range w.plans {
		if err := json.Unmarshal(w.plans[k], &r.plans[k]); err != nil {
			return r, fmt.Errorf("plan %d: %w", k, err)
		}
	}
	for k := range w.forecasts {
		if err := json.Unmarshal(w.forecasts[k], &r.forecasts[k]); err != nil {
			return r, fmt.Errorf("forecast %d: %w", k, err)
		}
	}
	return r, nil
}

// verifyRefitWorkload replays one workload's whole run — history, cold
// fit, then every slide's ingest and warm refit — through a reference
// engine and compares each hp plan and forecast byte for byte.
func verifyRefitWorkload(w *refitWorkload, slides int) error {
	ref, err := newReferenceEngine(refitDt, refitHistory)
	if err != nil {
		return err
	}
	if err := ref.ingest(w.span(epoch0, w.histEnd)); err != nil {
		return err
	}
	if err := ref.train(); err != nil {
		return err
	}
	for k := 0; k < slides; k++ {
		now := w.slideStart(k + 1)
		for _, ts := range w.slideBatches(k) {
			if err := ref.ingest(ts); err != nil {
				return err
			}
		}
		if err := ref.train(); err != nil {
			return err
		}
		for j := 0; j < refitPlans; j++ {
			want, err := ref.planHP(refitTarget, refitSlide, now+float64(j)*refitReplan)
			if err != nil {
				return err
			}
			if err := sameBytes(fmt.Sprintf("hp plan %s slide %d.%d", w.id, k, j), w.plans[k*refitPlans+j], want); err != nil {
				return err
			}
		}
		want, err := ref.forecast(now, now+refitSlide, refitDt)
		if err != nil {
			return err
		}
		if err := sameBytes(fmt.Sprintf("forecast %s slide %d", w.id, k), w.forecasts[k], want); err != nil {
			return err
		}
	}
	return nil
}
