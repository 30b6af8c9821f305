package engine

// Observability for the engine layer. Every Engine carries its own set
// of atomic lifetime counters (engineMetrics) and dual-writes each
// event into the registry's shared fleet totals (fleetCounters), so
// the hot paths — ingest appends, plan/forecast cache lookups — pay
// two atomic adds per event class and never an extra lock or map
// lookup, while a /metrics scrape reads finished totals instead of
// walking the fleet. Two read sides:
//
//   - Engine.Stats: the per-workload JSON summary behind
//     GET /v1/workloads/{id}/stats;
//   - Registry.Instrument: the fleet counters, staleness gauges, the
//     shared refit-latency and snapshot-duration histograms, and the
//     snapshot-health series /healthz keys off.

import (
	"time"

	"robustscaler/internal/metrics"
)

// engineMetrics is one workload's lifetime counters. All fields are
// atomic; they are written on the engine's own paths and read lock-free
// by Stats.
type engineMetrics struct {
	ingestEvents  metrics.Counter
	ingestBatches metrics.Counter
	// refits counts installed-or-discarded successful fits;
	// refitFailures counts fits that errored (model kept). refitSeconds
	// accumulates the wall time of every completed fit attempt, success
	// and failure alike.
	refits        metrics.Counter
	refitFailures metrics.Counter
	refitSeconds  metrics.Float
	// refitsWarm/refitsCold split the successful fits by starting point
	// (seeded from the previous solution vs the cold initial guess), and
	// admmIterations accumulates the solver iterations they ran — the
	// pair behind the warm-start speedup dashboards: iterations per
	// refit dropping as the warm share rises.
	refitsWarm     metrics.Counter
	refitsCold     metrics.Counter
	admmIterations metrics.Counter
	planHits       metrics.Counter
	planMisses     metrics.Counter
	forecastHits   metrics.Counter
	forecastMisses metrics.Counter
	// walReplayedRecords/walReplayedEvents count batches re-applied from
	// the write-ahead log at boot. Kept apart from the ingest counters:
	// a replayed batch was already counted as ingested when it was
	// acknowledged, and double-counting would skew throughput math.
	walReplayedRecords metrics.Counter
	walReplayedEvents  metrics.Counter
}

// fleetCounters are the registry-wide totals every engine dual-writes
// alongside its own counters (one extra atomic add per event) so a
// scrape reads finished numbers instead of walking — and locking — the
// whole fleet per series. Being real counters, they also stay
// monotonic when workloads are deleted, as Prometheus expects.
type fleetCounters struct {
	ingestEvents   *metrics.Counter
	ingestBatches  *metrics.Counter
	refits         *metrics.Counter
	refitFailures  *metrics.Counter
	refitsWarm     *metrics.Counter
	refitsCold     *metrics.Counter
	admmIterations *metrics.Counter
	planHits       *metrics.Counter
	planMisses     *metrics.Counter
	forecastHits   *metrics.Counter
	forecastMisses *metrics.Counter
}

// countIngest records one accepted batch of n events.
func (e *Engine) countIngest(n uint64) {
	e.m.ingestBatches.Inc()
	e.m.ingestEvents.Add(n)
	if f := e.fleet; f != nil {
		f.ingestBatches.Inc()
		f.ingestEvents.Add(n)
	}
}

// countReplay records one WAL batch of n events re-applied at boot.
func (e *Engine) countReplay(n uint64) {
	e.m.walReplayedRecords.Inc()
	e.m.walReplayedEvents.Add(n)
}

// markStaleLocked stamps the moment the model first fell behind the
// arrival history, if it isn't already stamped. Called after every gen
// bump; the threshold-alert gauges turn the stamp's age into a signal.
// A workload too small to train (fewer than 2 arrivals) is never
// considered stale — it has no model to be behind and no fit to run.
func (e *Engine) markStaleLocked() {
	if e.staleSince == 0 && len(e.arrivals) >= 2 && e.gen != e.trainedGen {
		e.staleSince = e.cfg.Now()
	}
}

// modelStalenessSeconds reports how long the model has been behind the
// ingested arrivals; 0 when fresh. Unlike the retrainer's staleness
// check this does not exempt failed fits: a workload whose refits keep
// failing is exactly what the alert threshold exists to surface.
func (e *Engine) modelStalenessSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.staleSince == 0 {
		return 0
	}
	if age := e.cfg.Now() - e.staleSince; age > 0 {
		return age
	}
	return 0
}

// countRefit records one completed fit attempt: its wall time, whether
// it produced a model, whether it was warm-started, and the ADMM
// iterations it ran (0 for attempts rejected before fitting).
func (e *Engine) countRefit(seconds float64, ok, warm bool, iterations uint64) {
	e.m.refitSeconds.Add(seconds)
	e.m.admmIterations.Add(iterations)
	if ok {
		e.m.refits.Inc()
		if warm {
			e.m.refitsWarm.Inc()
		} else {
			e.m.refitsCold.Inc()
		}
	} else {
		e.m.refitFailures.Inc()
	}
	if f := e.fleet; f != nil {
		f.admmIterations.Add(iterations)
		if ok {
			f.refits.Inc()
			if warm {
				f.refitsWarm.Inc()
			} else {
				f.refitsCold.Inc()
			}
		} else {
			f.refitFailures.Inc()
		}
	}
}

// Stats is the per-workload observability summary: the live Status
// fields plus the workload's lifetime counters. Counters reset with the
// process (they are not persisted in snapshots), matching Prometheus
// counter semantics.
type Stats struct {
	Status
	// StalenessGenerations is how many ingest generations the current
	// model is behind the arrival history; 0 means the model covers
	// everything recorded.
	StalenessGenerations int64 `json:"staleness_generations"`
	// LastRefitAt is when the current model was installed, in engine-
	// clock seconds; 0 before the first fit (or since a restore).
	LastRefitAt float64 `json:"last_refit_at"`
	// ModelStalenessSeconds is how long the model has been behind the
	// arrival history, in engine-clock seconds; 0 when fresh. The
	// fleet-level threshold gauges aggregate this per-workload value.
	ModelStalenessSeconds float64 `json:"model_staleness_seconds"`
	IngestedEvents        uint64  `json:"ingested_events_total"`
	IngestedBatches       uint64  `json:"ingested_batches_total"`
	Refits                uint64  `json:"refits_total"`
	RefitFailures         uint64  `json:"refit_failures_total"`
	RefitSecondsTotal     float64 `json:"refit_seconds_total"`
	// WarmStartRefits/ColdStartRefits split Refits by starting point;
	// RefitADMMIterations totals the solver iterations across every fit
	// attempt, so iterations-per-refit (and its drop once warm starts
	// kick in) is derivable from lifetime counters alone.
	WarmStartRefits      uint64 `json:"warm_start_refits_total"`
	ColdStartRefits      uint64 `json:"cold_start_refits_total"`
	RefitADMMIterations  uint64 `json:"refit_admm_iterations_total"`
	PlanCacheHits        uint64 `json:"plan_cache_hits_total"`
	PlanCacheMisses      uint64 `json:"plan_cache_misses_total"`
	ForecastCacheHits    uint64 `json:"forecast_cache_hits_total"`
	ForecastCacheMisses  uint64 `json:"forecast_cache_misses_total"`
	PlanCacheEntries     int    `json:"plan_cache_entries"`
	ForecastCacheEntries int    `json:"forecast_cache_entries"`
	// WAL state, present when a write-ahead log is attached: the last
	// acknowledged batch sequence, the log's on-disk footprint, whether
	// the log is wedged (appends failing until restart), and how much of
	// the current history arrived via boot-time replay.
	WALLastSeq         uint64 `json:"wal_last_seq,omitempty"`
	WALSegments        int    `json:"wal_segments,omitempty"`
	WALSizeBytes       int64  `json:"wal_size_bytes,omitempty"`
	WALBroken          bool   `json:"wal_broken,omitempty"`
	WALReplayedRecords uint64 `json:"wal_replayed_records_total,omitempty"`
	WALReplayedEvents  uint64 `json:"wal_replayed_events_total,omitempty"`
}

// Stats reports the workload's observability summary.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := Stats{
		Status:               e.statusLocked(),
		StalenessGenerations: e.gen - e.trainedGen,
		LastRefitAt:          e.lastTrainAt,
		WALLastSeq:           e.walSeq,
	}
	if rc := e.results; rc != nil {
		st.PlanCacheEntries, st.ForecastCacheEntries = len(rc.plans), len(rc.forecasts)
	}
	if e.staleSince > 0 {
		if age := e.cfg.Now() - e.staleSince; age > 0 {
			st.ModelStalenessSeconds = age
		}
	}
	wlog := e.wal
	e.mu.Unlock()
	if wlog != nil {
		ls := wlog.Stats()
		st.WALSegments = ls.Segments
		st.WALSizeBytes = ls.SizeBytes
		st.WALBroken = ls.Broken
		st.WALReplayedRecords = e.m.walReplayedRecords.Value()
		st.WALReplayedEvents = e.m.walReplayedEvents.Value()
	}
	st.IngestedEvents = e.m.ingestEvents.Value()
	st.IngestedBatches = e.m.ingestBatches.Value()
	st.Refits = e.m.refits.Value()
	st.RefitFailures = e.m.refitFailures.Value()
	st.RefitSecondsTotal = e.m.refitSeconds.Value()
	st.WarmStartRefits = e.m.refitsWarm.Value()
	st.ColdStartRefits = e.m.refitsCold.Value()
	st.RefitADMMIterations = e.m.admmIterations.Value()
	st.PlanCacheHits = e.m.planHits.Value()
	st.PlanCacheMisses = e.m.planMisses.Value()
	st.ForecastCacheHits = e.m.forecastHits.Value()
	st.ForecastCacheMisses = e.m.forecastMisses.Value()
	return st
}

// stalenessLag returns gen - trainedGen under the lock.
func (e *Engine) stalenessLag() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen - e.trainedGen
}

// SetFitSeconds attaches a shared fit-latency histogram; every
// completed fit attempt observes its wall time into it. Must be set
// before the engine serves traffic (the Registry does so before
// publishing a new engine).
func (e *Engine) SetFitSeconds(h *metrics.Histogram) { e.fitSeconds = h }

// SetStalenessThreshold configures the model-staleness alert: workloads
// whose model has been behind the arrival history for more than sec
// seconds are counted by the robustscaler_workloads_stale_over_threshold
// gauge. 0 disables the alert. Safe to call at any time.
func (r *Registry) SetStalenessThreshold(sec float64) {
	r.instMu.Lock()
	r.stalenessThreshold = sec
	r.instMu.Unlock()
}

// StalenessThreshold returns the configured alert threshold in seconds;
// 0 means disabled.
func (r *Registry) StalenessThreshold() float64 {
	r.instMu.Lock()
	defer r.instMu.Unlock()
	return r.stalenessThreshold
}

// SnapshotHealth describes the registry's persistence liveness — the
// outcome trail of SnapshotTo across every trigger (background tick,
// admin endpoint, durable delete, final shutdown snapshot). The health
// endpoint turns ConsecutiveFailures into a degraded signal.
type SnapshotHealth struct {
	Snapshots           uint64 `json:"snapshots_total"`
	Failures            uint64 `json:"snapshot_failures_total"`
	ConsecutiveFailures uint64 `json:"consecutive_failures"`
	// LastSuccessUnix is the wall-clock second of the last successful
	// snapshot; 0 means none has succeeded yet.
	LastSuccessUnix     int64   `json:"last_success_unix"`
	LastDurationSeconds float64 `json:"last_duration_seconds"`
	// LastError is the most recent failure's message; cleared by the
	// next success.
	LastError string `json:"last_error,omitempty"`
}

// SnapshotHealth returns the registry's persistence liveness record.
func (r *Registry) SnapshotHealth() SnapshotHealth {
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	return r.snapHealth
}

// recordSnapshot folds one snapshot outcome into the health record and
// the shared duration histogram.
func (r *Registry) recordSnapshot(dur time.Duration, err error) {
	r.instMu.Lock()
	h := r.snapSeconds
	r.instMu.Unlock()
	if h != nil {
		h.Observe(dur.Seconds())
	}
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	r.snapHealth.Snapshots++
	r.snapHealth.LastDurationSeconds = dur.Seconds()
	if err != nil {
		r.snapHealth.Failures++
		r.snapHealth.ConsecutiveFailures++
		r.snapHealth.LastError = err.Error()
		return
	}
	r.snapHealth.ConsecutiveFailures = 0
	r.snapHealth.LastError = ""
	r.snapHealth.LastSuccessUnix = time.Now().Unix()
}

// Instrument registers the engine layer's fleet-wide metrics into m:
// the fleet total counters every engine dual-writes (see
// fleetCounters), the staleness gauges (the only series that walk the
// fleet, once each, at scrape time), the refit-latency and
// snapshot-duration histograms (shared by every engine this registry
// created or will create), and the snapshot-health series. Call it
// once at startup, before traffic.
func (r *Registry) Instrument(m *metrics.Registry) {
	m.GaugeFunc("robustscaler_workloads",
		"Registered workloads.", func() float64 { return float64(r.Len()) })
	m.GaugeFunc("robustscaler_workloads_stale",
		"Workloads whose model lags the ingested arrivals.", func() float64 {
			n := 0.0
			for _, e := range r.snapshot() {
				if e.stalenessLag() > 0 {
					n++
				}
			}
			return n
		})
	m.GaugeFunc("robustscaler_staleness_generations",
		"Sum over workloads of ingest generations the model is behind.", func() float64 {
			n := 0.0
			for _, e := range r.snapshot() {
				n += float64(e.stalenessLag())
			}
			return n
		})
	m.GaugeFunc("robustscaler_staleness_threshold_seconds",
		"Configured model-staleness alert threshold; 0 when disabled.",
		r.StalenessThreshold)
	m.GaugeFunc("robustscaler_workloads_stale_over_threshold",
		"Workloads whose model has been stale for longer than the threshold (always 0 when disabled).",
		func() float64 {
			thr := r.StalenessThreshold()
			if thr <= 0 {
				return 0
			}
			n := 0.0
			for _, e := range r.snapshot() {
				if e.modelStalenessSeconds() > thr {
					n++
				}
			}
			return n
		})
	m.GaugeFunc("robustscaler_model_staleness_max_seconds",
		"Age of the stalest model in the fleet; 0 when every model is fresh.",
		func() float64 {
			worst := 0.0
			for _, e := range r.snapshot() {
				if s := e.modelStalenessSeconds(); s > worst {
					worst = s
				}
			}
			return worst
		})

	fleet := &fleetCounters{
		ingestEvents: m.Counter("robustscaler_engine_ingested_events_total",
			"Arrival timestamps recorded by engines (survives workload deletion)."),
		ingestBatches: m.Counter("robustscaler_engine_ingested_batches_total",
			"Ingest batches recorded by engines."),
		refits: m.Counter("robustscaler_refits_total",
			"Successful model fits."),
		refitFailures: m.Counter("robustscaler_refit_failures_total",
			"Failed model fits (previous model kept)."),
		refitsWarm: m.Counter("robustscaler_refit_warm_start_total",
			"Successful fits warm-started from the previous solution."),
		refitsCold: m.Counter("robustscaler_refit_cold_start_total",
			"Successful fits run from the cold initial guess."),
		admmIterations: m.Counter("robustscaler_refit_admm_iterations_total",
			"ADMM iterations across all fit attempts."),
		planHits: m.Counter("robustscaler_plan_cache_hits_total",
			"Plan requests served from the result cache."),
		planMisses: m.Counter("robustscaler_plan_cache_misses_total",
			"Plan requests that recomputed the horizon."),
		forecastHits: m.Counter("robustscaler_forecast_cache_hits_total",
			"Forecast requests served from the result cache."),
		forecastMisses: m.Counter("robustscaler_forecast_cache_misses_total",
			"Forecast requests that resampled the intensity."),
	}
	fit := m.Histogram("robustscaler_refit_seconds",
		"Wall time of one model fit attempt.", metrics.DefBuckets)
	snap := m.Histogram("robustscaler_snapshot_seconds",
		"Wall time of one registry snapshot (collect + commit).", metrics.DefBuckets)
	r.instMu.Lock()
	r.fleet = fleet
	r.fitSeconds = fit
	r.snapSeconds = snap
	r.instMu.Unlock()
	for _, e := range r.snapshot() {
		e.fleet = fleet
		e.SetFitSeconds(fit)
	}

	m.CounterFunc("robustscaler_snapshots_total",
		"Registry snapshot attempts.", func() float64 { return float64(r.SnapshotHealth().Snapshots) })
	m.CounterFunc("robustscaler_snapshot_failures_total",
		"Registry snapshot attempts that failed (previous snapshot kept).",
		func() float64 { return float64(r.SnapshotHealth().Failures) })
	m.GaugeFunc("robustscaler_snapshot_consecutive_failures",
		"Consecutive snapshot failures since the last success.",
		func() float64 { return float64(r.SnapshotHealth().ConsecutiveFailures) })
	m.GaugeFunc("robustscaler_snapshot_last_success_age_seconds",
		"Seconds since the last successful snapshot; -1 before the first.", func() float64 {
			last := r.SnapshotHealth().LastSuccessUnix
			if last == 0 {
				return -1
			}
			return time.Since(time.Unix(last, 0)).Seconds()
		})
}
