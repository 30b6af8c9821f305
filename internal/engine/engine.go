// Package engine owns the model lifecycle of scaled workloads: each
// Engine holds one workload's arrival history, fitted NHPP model and
// plan/forecast math, and a Registry multiplexes many such workloads in
// one process with per-workload locking (sharded — no global mutex) plus
// a background retraining worker pool. The HTTP control plane
// (internal/server) is a thin routing layer over this package, the shape
// a reconciler-style autoscaler operator integrates with: one registry
// of scaled targets, each with an isolated model and concurrent
// retraining.
//
// The registry is also the unit of durability: Registry.Snapshot and
// Registry.Restore persist every workload's history, model and config
// through internal/store's atomic on-disk format (per-workload
// serialization via Engine.MarshalState / Engine.RestoreState), and a
// background Snapshotter keeps the snapshot fresh the same way the
// Retrainer keeps models fresh.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"robustscaler/internal/decision"
	"robustscaler/internal/metrics"
	"robustscaler/internal/nhpp"
	"robustscaler/internal/stats"
	"robustscaler/internal/timeseries"
	"robustscaler/internal/train"
	"robustscaler/internal/wal"
)

// Sentinel errors; the HTTP layer maps them onto status codes.
var (
	// ErrNoData means training was requested before enough arrivals.
	ErrNoData = errors.New("need at least 2 recorded arrivals")
	// ErrNoModel means a plan/forecast was requested before training.
	ErrNoModel = errors.New("no trained model; train first")
	// ErrInvalid wraps request-validation failures.
	ErrInvalid = errors.New("invalid request")
)

// Config parameterizes one workload's engine (and, via Registry, every
// workload it creates): the per-workload defaults plus the process-wide
// static parts. The embedded EngineConfig only seeds the workload's
// initial configuration — after creation the knobs are read, persisted
// and updated through the versioned config plane (EngineConfig /
// SetEngineConfig), so on a running daemon the flags behind this struct
// are fleet defaults, not live settings.
type Config struct {
	// EngineConfig holds the per-workload defaults a new workload starts
	// from (Version is ignored: every workload starts at version 1).
	// Zero HPTarget/RTTarget/CostTarget mean 0.9, zero PlanHorizon 600
	// and non-positive MCSamples 1000 (a retired knob: see EngineConfig).
	// Its TrainKnobs are reached as cfg.EngineConfig.Train — the Train
	// selector is the field below.
	EngineConfig
	// Train is the fleet-wide training configuration each workload's
	// TrainKnobs overlay.
	Train train.Config
	// Now supplies the current time as a Unix-epoch-like second count;
	// defaults to time.Now. Tests inject a fake clock.
	Now func() float64
}

// DefaultConfig returns a production-shaped configuration.
func DefaultConfig() Config {
	return Config{
		EngineConfig: EngineConfig{
			Dt:            60,
			Pending:       13,
			HistoryWindow: 28 * 86400,
			MCSamples:     1000,
		},
		Train: train.DefaultConfig(),
	}
}

// validate normalizes defaults in place and rejects unusable settings.
func (c *Config) validate() error {
	if c.Dt <= 0 {
		return fmt.Errorf("engine: non-positive Dt %g", c.Dt)
	}
	if c.Pending < 0 {
		return fmt.Errorf("engine: negative pending time %g", c.Pending)
	}
	if c.MCSamples <= 0 {
		c.MCSamples = 1000
	}
	if c.Now == nil {
		c.Now = func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	}
	if c.HPTarget == 0 {
		c.HPTarget = 0.9
	}
	if c.RTTarget == 0 {
		c.RTTarget = 0.9
	}
	if c.CostTarget == 0 {
		c.CostTarget = 0.9
	}
	if c.PlanHorizon == 0 {
		c.PlanHorizon = 600
	}
	c.Version = 1
	return nil
}

// overlayTrainKnobs overlays the per-workload training knobs onto the
// fleet default TrainConfig: zero-valued knobs keep the default. dt is
// the workload's modeling bin width, needed to convert the
// candidate-period knob (seconds) into detector bins.
func overlayTrainKnobs(tc train.Config, k TrainKnobs, dt float64) train.Config {
	if k.ADMMMaxIter > 0 {
		tc.Fit.MaxIter = k.ADMMMaxIter
	}
	if k.ADMMTol > 0 {
		tc.Fit.Tol = k.ADMMTol
	}
	if k.DisablePeriodicity {
		tc.DetectPeriodicity = false
	}
	if len(k.CandidatePeriods) > 0 && dt > 0 {
		cands := make([]int, 0, len(k.CandidatePeriods))
		for _, p := range k.CandidatePeriods {
			if bins := int(math.Round(p / dt)); bins >= 2 {
				cands = append(cands, bins)
			}
		}
		tc.Periodicity.CandidatePeriods = cands
	}
	return tc
}

// Engine is the scaling brain of a single workload: sorted arrival
// history, the current NHPP model, and the decision math that turns the
// model into creation plans. All methods are safe for concurrent use.
// Model fitting runs outside the lock so a slow refit never blocks
// ingest or planning.
//
// cfg holds the static, immutable-after-New parts (Train sub-config,
// clock) — its embedded EngineConfig is only the creation-time template;
// the live per-workload tunables are ec, guarded by mu, because
// SetEngineConfig mutates them at runtime.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	ec       EngineConfig
	arrivals []float64 // sorted
	model    *train.Model
	trainedN int // arrivals included in the current model
	// stateGen counts durable-state mutations (ingest, train install,
	// restore, config update); the snapshotter uses it to skip workloads
	// unchanged since the last persisted generation.
	stateGen uint64
	// lastTrainAt is when the current model was installed (engine clock
	// seconds); RetrainEvery gates the background sweep against it. Not
	// persisted: after a restore the first due refit may run immediately.
	lastTrainAt float64
	// gen counts ingested batches; trainedGen is the gen the current
	// model saw. Staleness is a generation comparison, not an arrival
	// count: with a full history window the trim can remove exactly as
	// many points as a batch adds, leaving the count unchanged while the
	// data under the model rolls over.
	gen        int64
	trainedGen int64
	// failedGen is the gen of the last failed fit; the background
	// retrainer skips the workload until new arrivals advance gen, so a
	// permanently degenerate history isn't refit on every sweep.
	failedGen int64

	// wal, when attached (Registry.AttachWAL — before the engine serves
	// traffic), makes every accepted batch durable before it is
	// acknowledged: ingest appends the batch under walSeq+1 and only
	// then mutates state. walSeq is the workload's monotone batch
	// sequence; it rides in the snapshot blob so boot-time replay knows
	// which log records the snapshot already covers (see wal.go).
	wal    *wal.Log
	walSeq uint64
	// staleSince is the engine-clock time the model first fell behind
	// the arrival history; 0 while fresh. The staleness-threshold alert
	// gauges read it. Not persisted: after a restore a still-stale model
	// re-ages from the boot clock, which can only delay an alert by one
	// restart.
	staleSince float64

	// results caches Plan/Forecast results for the installed (model, ec),
	// also guarded by mu. The three paths that replace either — a train
	// install, SetEngineConfig and RestoreState — set it to nil; ingest
	// leaves it alone, because plans and forecasts read no arrivals.
	results *resultCache

	// m holds the workload's lifetime counters (see metrics.go). The
	// fields are atomic: the hot paths bump them without extra locking,
	// and Stats reads them lock-free. fleet and fitSeconds, when set
	// (Registry.Instrument — before the engine serves traffic),
	// dual-write each event into the fleet-wide series, so a /metrics
	// scrape never has to walk engines to total the counters (and the
	// totals stay monotonic when workloads are deleted).
	m          engineMetrics
	fleet      *fleetCounters
	fitSeconds *metrics.Histogram
}

// planKey identifies one cacheable planning round. Clock-anchored
// requests (HasNow false) are keyed on a quantized now — see Plan.
// hasNow keeps the two namespaces apart: an explicit now= that happens
// to land on a quantum multiple must not be served a clock-anchored
// round computed elsewhere in that window (its Now could be off by up
// to the quantum, and the explicit form promises exact anchoring).
type planKey struct {
	variant string
	target  float64
	horizon float64
	now     float64
	hasNow  bool
}

// forecastKey identifies one cacheable forecast.
type forecastKey struct {
	from, to, step float64
}

// planEntry is one cached planning round: the plan, plus — rendered
// lazily, on the first repeat of the key — the exact HTTP response
// body. A key requested once holds no body: many keys are never
// repeated (explicit-now rounds, parameter sweeps), and rendering every
// miss would multiply the cache's memory for bytes nobody reads. plan
// is immutable after creation; body is guarded by the engine mutex.
type planEntry struct {
	plan *Plan
	body []byte
}

// resultCache holds the rounds and forecasts computed from one installed
// (model, config) pair: the only inputs either reads. A result computed
// while a train, config update or restore replaced the pair is stored
// into the cache it looked up in, which is then unreachable — so a
// superseded result is returned once and never served again.
type resultCache struct {
	plans     map[planKey]*planEntry
	forecasts map[forecastKey]*forecastEntry
}

// maxCachedResults bounds each map of a result cache. Dashboards repeat
// a handful of distinct queries, so the bound only matters when callers
// sweep parameters; on overflow the map is simply reset.
const maxCachedResults = 256

// resultsLocked returns the installed pair's result cache, creating it
// on first use. e.mu must be held.
func (e *Engine) resultsLocked() *resultCache {
	if e.results == nil {
		e.results = &resultCache{plans: map[planKey]*planEntry{}, forecasts: map[forecastKey]*forecastEntry{}}
	}
	return e.results
}

// New creates an Engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.EngineConfig.validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, ec: cfg.EngineConfig}, nil
}

// Config returns the engine's configuration in the constructor's shape:
// the static template fields plus the current values of the
// per-workload tunables (which may have moved since construction via
// SetEngineConfig).
func (e *Engine) Config() Config {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.cfg
	c.EngineConfig = e.ec
	c.Train = overlayTrainKnobs(c.Train, e.ec.Train, e.ec.Dt)
	return c
}

// Now reads the engine's clock — the injectable time source callers use
// to default request anchors consistently with the engine.
func (e *Engine) Now() float64 { return e.cfg.Now() }

// maxTimestamp bounds accepted arrival epochs (seconds): ~31M years
// either side of the epoch — far past any clock, but small enough that
// a stray millisecond-scaled or corrupted value can't wedge training
// with an astronomically wide series or trim away the real history.
const maxTimestamp = 1e15

// ValidateTimestamps rejects batches Ingest would refuse, so callers
// can vet a batch before creating a workload for it.
func ValidateTimestamps(timestamps []float64) error {
	for _, t := range timestamps {
		if math.IsNaN(t) || t < -maxTimestamp || t > maxTimestamp {
			return fmt.Errorf("%w: timestamp %g out of range", ErrInvalid, t)
		}
	}
	return nil
}

// Ingest records a batch of arrival timestamps and returns the retained
// total. The batch is sorted on its own and, in the steady state of
// in-order traffic, appended in O(batch); only a batch overlapping
// already-recorded history pays a linear merge — never a full re-sort.
func (e *Engine) Ingest(timestamps []float64) (int, error) {
	if len(timestamps) == 0 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.arrivals), nil
	}
	if err := ValidateTimestamps(timestamps); err != nil {
		return 0, err
	}
	batch := append([]float64(nil), timestamps...)
	if !sort.Float64sAreSorted(batch) {
		sort.Float64s(batch)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// A batch that already falls entirely outside the history window
	// (e.g. a backfill replaying expired data) changes nothing: skip the
	// merge and the gen bump so it doesn't trigger a redundant refit.
	if n := len(e.arrivals); n > 0 && e.ec.HistoryWindow > 0 &&
		batch[len(batch)-1] < e.arrivals[n-1]-e.ec.HistoryWindow {
		return n, nil
	}
	// Durability before acknowledgment: if the log can't take the batch,
	// the request fails with nothing mutated (see appendWALLocked).
	if err := e.appendWALLocked([][]float64{batch}); err != nil {
		return 0, err
	}
	e.gen++
	e.stateGen++
	e.countIngest(uint64(len(batch)))
	if n := len(e.arrivals); n == 0 || batch[0] >= e.arrivals[n-1] {
		e.arrivals = append(e.arrivals, batch...)
	} else {
		e.arrivals = mergeSorted(e.arrivals, batch)
	}
	e.trimLocked()
	e.markStaleLocked()
	return len(e.arrivals), nil
}

// trimLocked drops arrivals older than the history window. Re-slice
// rather than compact: a memmove of the whole retained history per
// batch would make steady-state ingest O(total) again. The dead prefix
// is reclaimed when append outgrows the backing array, which amortizes
// to O(batch).
func (e *Engine) trimLocked() {
	if e.ec.HistoryWindow <= 0 || len(e.arrivals) == 0 {
		return
	}
	cut := e.arrivals[len(e.arrivals)-1] - e.ec.HistoryWindow
	if i := sort.SearchFloat64s(e.arrivals, cut); i > 0 {
		e.arrivals = e.arrivals[i:]
	}
}

// IngestSortedChunks is the append-only fast path behind streaming
// ingest (NDJSON/binary bodies): it records a batch that arrives as a
// sequence of chunks already proven sorted — within each chunk and
// non-decreasing across chunk boundaries — and already validated
// (ValidateTimestamps). Because the values need neither a defensive
// copy nor a sort, the only work under the lock is one exactly-sized
// reserve of the history array and a memcpy per chunk; a million-event
// request body therefore materializes exactly once, in the history
// itself.
//
// The sortedness contract is the caller's to uphold for the interior of
// each chunk (the streaming decoders prove it during their single
// pass); chunk *boundaries* are re-checked here because that costs one
// comparison per chunk. In-order chunks behind already-recorded history
// fall back to the linear merge, same as Ingest.
func (e *Engine) IngestSortedChunks(chunks [][]float64) (int, error) {
	total := 0
	last := math.Inf(-1)
	for _, c := range chunks {
		if len(c) == 0 {
			continue
		}
		if c[0] < last {
			return 0, fmt.Errorf("%w: chunks out of order (%g after %g)", ErrInvalid, c[0], last)
		}
		last = c[len(c)-1]
		total += len(c)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if total == 0 {
		return len(e.arrivals), nil
	}
	// Entirely behind the history window: a no-op, like Ingest.
	if n := len(e.arrivals); n > 0 && e.ec.HistoryWindow > 0 &&
		last < e.arrivals[n-1]-e.ec.HistoryWindow {
		return n, nil
	}
	// Durability before acknowledgment, same as Ingest. The chunks are
	// logged as one record (their concatenation is the sorted batch), so
	// replay reconstructs the identical history.
	if err := e.appendWALLocked(chunks); err != nil {
		return 0, err
	}
	e.gen++
	e.stateGen++
	e.countIngest(uint64(total))
	// One grow sized for the whole batch instead of append's doubling
	// dance — the batch size is known up front, which a streaming decode
	// earns us — plus 25% headroom. The headroom is what keeps
	// steady-state ingest O(batch): trimLocked drops the dead prefix by
	// re-slicing, which permanently donates that capacity, so an
	// exactly-sized reserve would overflow again on the very next batch
	// and re-copy the entire live window per append.
	if need := len(e.arrivals) + total; need > cap(e.arrivals) {
		grown := make([]float64, len(e.arrivals), need+need/4)
		copy(grown, e.arrivals)
		e.arrivals = grown
	}
	for _, c := range chunks {
		if len(c) == 0 {
			continue
		}
		if n := len(e.arrivals); n == 0 || c[0] >= e.arrivals[n-1] {
			e.arrivals = append(e.arrivals, c...)
		} else {
			// A straggler chunk behind recorded history: linear merge.
			// Only the leading chunks of a batch can take this path —
			// once one chunk appends past the old tail, the boundary
			// check above keeps every later chunk on the append path.
			e.arrivals = mergeSorted(e.arrivals, c)
		}
	}
	e.trimLocked()
	e.markStaleLocked()
	return len(e.arrivals), nil
}

// mergeSorted merges two sorted slices into a fresh sorted slice.
func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// TrainInfo reports the outcome of a fit.
type TrainInfo struct {
	Bins          int     `json:"bins"`
	PeriodSeconds float64 `json:"period_seconds"`
	Iterations    int     `json:"admm_iterations"`
	Converged     bool    `json:"converged"`
	// WarmStarted reports that the fit was seeded from the previous
	// model's ADMM solution rather than a cold initial guess.
	WarmStarted bool `json:"warm_started"`
	// Installed is false when a concurrent fit over fresher arrivals won
	// the swap; the stats above then describe the discarded model.
	Installed bool `json:"installed"`
}

// Train snapshots the arrival history, fits the NHPP model (outside the
// lock), and installs it unless a concurrent fit already covered more
// arrivals.
//
// Refits over new data warm-start from the installed model's ADMM
// solution (unless the workload's TrainKnobs disable it): the training
// objective is strictly convex, so the result is the same model, reached
// in a fraction of the cold iteration count. A refit over unchanged data
// (gen == trainedGen — e.g. an explicit train request repeated) runs
// cold so it reproduces the installed model bit-for-bit.
func (e *Engine) Train() (TrainInfo, error) {
	e.mu.Lock()
	arr := append([]float64(nil), e.arrivals...)
	gen := e.gen
	dt := e.ec.Dt
	trainCfg := overlayTrainKnobs(e.cfg.Train, e.ec.Train, e.ec.Dt)
	var warm *nhpp.WarmState
	if e.model != nil && gen != e.trainedGen && !e.ec.Train.DisableWarmStart {
		warm = e.model.NHPP.WarmState()
	}
	e.mu.Unlock()
	if len(arr) < 2 {
		return TrainInfo{}, ErrNoData
	}
	// Bound the series the fit materializes: a history whose span/Δt is
	// astronomical (one stray far-off timestamp with no history window)
	// must fail cleanly instead of allocating an O(span/Δt) series in
	// the background retrainer.
	if bins := (arr[len(arr)-1] - arr[0]) / dt; bins > maxTrainBins {
		e.mu.Lock()
		if gen > e.failedGen {
			e.failedGen = gen
			// The failed marker is persisted (engineState.Failed): without
			// this bump an incremental snapshot would keep the pre-failure
			// blob and every boot would re-run the known-doomed fit once.
			e.stateGen++
		}
		e.mu.Unlock()
		e.countRefit(0, false, false, 0)
		return TrainInfo{}, fmt.Errorf("%w: history spans %.3g bins (max %g); trim or set HistoryWindow", ErrInvalid, bins, float64(maxTrainBins))
	}
	fitStart := time.Now()
	series := buildSeries(arr, dt)
	// The arrival history is already bounded to HistoryWindow at ingest,
	// so the fit covers the whole series (window 0).
	model, err := train.FitWindowWarm(series, 0, trainCfg, warm)
	fitDur := time.Since(fitStart)
	if h := e.fitSeconds; h != nil {
		h.Observe(fitDur.Seconds())
	}
	if err != nil {
		e.mu.Lock()
		if gen > e.failedGen {
			e.failedGen = gen
			e.stateGen++ // the persisted Failed marker changed; see above
		}
		e.mu.Unlock()
		e.countRefit(fitDur.Seconds(), false, false, 0)
		return TrainInfo{}, fmt.Errorf("training failed: %w", err)
	}
	e.countRefit(fitDur.Seconds(), true, model.FitStats.WarmStarted, uint64(model.FitStats.Iterations))
	e.mu.Lock()
	installed := gen >= e.trainedGen
	if installed {
		e.model = model
		e.results = nil
		e.trainedN = len(arr)
		e.trainedGen = gen
		e.stateGen++
		e.lastTrainAt = e.cfg.Now()
		if e.gen == e.trainedGen {
			e.staleSince = 0
		} else {
			// Arrivals landed during the fit: the fresh model is already
			// behind them, but only since now — the pre-fit staleness was
			// just cured.
			e.staleSince = e.cfg.Now()
		}
	}
	e.mu.Unlock()
	return TrainInfo{
		Bins:          series.Len(),
		PeriodSeconds: model.PeriodSeconds,
		Iterations:    model.FitStats.Iterations,
		Converged:     model.FitStats.Converged,
		WarmStarted:   model.FitStats.WarmStarted,
		Installed:     installed,
	}, nil
}

// Retrain refits only when arrivals accumulated since the last fit — the
// idempotent step the background worker pool calls on every sweep. It
// reports whether a refit ran; on error the previous model is kept, per
// the retraining semantics of train.FitWindow. A per-workload
// RetrainEvery additionally rate-limits refits of an existing model:
// a stale workload whose model is younger than the cadence is skipped
// until the next sweep (an explicit Train is never gated).
func (e *Engine) Retrain() (bool, error) {
	e.mu.Lock()
	stale := len(e.arrivals) >= 2 && e.gen != e.trainedGen && e.gen != e.failedGen
	if stale && e.model != nil && e.ec.RetrainEvery > 0 &&
		e.cfg.Now()-e.lastTrainAt < e.ec.RetrainEvery {
		stale = false
	}
	e.mu.Unlock()
	if !stale {
		return false, nil
	}
	_, err := e.Train()
	return err == nil, err
}

// buildSeries bins arrivals with the configured Δt, starting at the
// bin containing the first arrival. The start is snapped to the
// absolute Δt grid (a multiple of Δt, not arr[0] itself) so that
// consecutive refits of a sliding window land on the same grid: the
// previous fit's solution then seeds the next one at a whole-bin
// offset, which is what makes warm-started refits possible.
func buildSeries(arr []float64, dt float64) *timeseries.Series {
	start := math.Floor(arr[0]/dt) * dt
	if start > arr[0] {
		// Floor(x/dt)*dt can round up past x at extreme magnitudes; the
		// series must still begin at or before the first arrival.
		start -= dt
	}
	end := arr[len(arr)-1] + dt
	return timeseries.FromArrivals(arr, start, end, dt)
}

// PlanRequest parameterizes one planning round.
type PlanRequest struct {
	// Variant is "hp" (default), "rt" or "cost".
	Variant string
	// Target is the HP probability, RT wait budget, or cost idle budget.
	Target float64
	// Horizon bounds how far ahead creations are planned, seconds.
	Horizon float64
	// Now anchors the plan; NaN or 0 with HasNow false uses the clock.
	Now    float64
	HasNow bool
}

// PlanEntry is one planned instance creation.
type PlanEntry struct {
	QueryIndex int     `json:"query_index"`
	CreateAt   float64 `json:"create_at"`
	LeadSecs   float64 `json:"lead_seconds"`
}

// Plan is a full planning-round result.
type Plan struct {
	Now     float64     `json:"now"`
	Variant string      `json:"variant"`
	Target  float64     `json:"target"`
	Kappa   int         `json:"kappa"`
	Plan    []PlanEntry `json:"plan"`
}

// maxPlanEntries bounds one planning round.
const maxPlanEntries = 10000

// planBuffers recycles the buffers planning rounds are walked into. A
// round's length is known only at the end of the walk, so the walk grows
// a pooled buffer and the cached plan gets one exact-size copy: a miss
// then allocates its plan once instead of every append doubling, and the
// cache holds no spare capacity.
var planBuffers = sync.Pool{New: func() any { return new([]PlanEntry) }}

// maxTrainBins bounds the series a fit materializes (~3.8 years of
// minute bins).
const maxTrainBins = 2_000_000

// Plan computes upcoming instance creation times from the current model:
// the κ threshold (eq. 8) plus one creation time per upcoming query via
// the variant's solver. Each is exact for the deterministic pending time:
// hp reads the query's arrival quantile (eq. 3), rt and cost solve eqs.
// 5 and 7 in closed form (decision.SolveRTExact, SolveCostExact). No
// variant draws random samples, so equal inputs give bit-identical
// plans, across restarts too.
//
// Results are cached per (variant, target, horizon, now) until the next
// train, restore or config update replaces the model or the config, so
// a dashboard polling the same query is an O(1) map hit instead of a
// horizon recomputation. Ingest keeps them: a round reads no arrivals.
// Clock-anchored requests (no explicit now) share a cache slot per Dt/4
// of wall time — the plan returned may be anchored up to Dt/4 seconds
// in the past, which is below the planning grid's own resolution; pass
// an explicit now for exact anchoring. The returned Plan is shared with
// the cache and must be treated as read-only. PlanJSON serves the same
// rounds, from the same cache, as response bytes.
func (e *Engine) Plan(req PlanRequest) (*Plan, error) {
	ent, _, err := e.plan(req)
	if err != nil {
		return nil, err
	}
	return ent.plan, nil
}

// PlanJSON is Plan for the HTTP surface. On a cache hit it returns the
// rendered response body (the plan JSON, newline-terminated —
// byte-identical to json.Encoder output), rendering it on the first
// hit and reusing it after, so a polled round costs a map lookup and
// one Write. On a miss it returns the plan instead, for the caller to
// stream: a round's body is kept only once its key is served a second
// time. Exactly one of body and plan is non-nil when err is nil.
func (e *Engine) PlanJSON(req PlanRequest) (body []byte, plan *Plan, err error) {
	ent, hit, err := e.plan(req)
	if err != nil {
		return nil, nil, err
	}
	if !hit {
		return nil, ent.plan, nil
	}
	body, err = e.renderBody(&ent.body, ent.plan)
	return body, nil, err
}

// plan returns the cache entry for req, computing and caching it on a
// miss, and reports whether it was a hit. Every call counts exactly one
// plan cache hit or miss.
func (e *Engine) plan(req PlanRequest) (*planEntry, bool, error) {
	variant := req.Variant
	if variant == "" {
		variant = "hp"
	}
	target := req.Target
	horizon := req.Horizon
	now := req.Now
	if !req.HasNow {
		now = e.cfg.Now()
	}
	alpha, err := planAlpha(variant, target, horizon, now)

	e.mu.Lock()
	model, ec := e.model, e.ec
	if model == nil || err != nil {
		e.mu.Unlock()
		if model == nil {
			return nil, false, ErrNoModel
		}
		return nil, false, err
	}
	keyNow := now
	if !req.HasNow {
		keyNow = ClockSlot(now, ec.Dt)
	}
	key := planKey{variant: variant, target: target, horizon: horizon, now: keyNow, hasNow: req.HasNow}
	rc := e.resultsLocked()
	ent, hit := rc.plans[key]
	e.mu.Unlock()
	if hit {
		e.m.planHits.Inc()
		if f := e.fleet; f != nil {
			f.planHits.Inc()
		}
		return ent, true, nil
	}
	e.m.planMisses.Inc()
	if f := e.fleet; f != nil {
		f.planMisses.Inc()
	}

	tau := ec.Pending
	kappa := decision.Kappa(model.Rate(now), stats.Deterministic{Value: tau}, alpha, nil, 0)
	h := decision.NewHorizon(model.NHPP, now, ec.Dt/4, 0)
	buf := planBuffers.Get().(*[]PlanEntry)
	entries := (*buf)[:0]
	for i := 1; len(entries) < maxPlanEntries; i++ {
		var x float64
		var ok bool
		switch variant {
		case "hp":
			x, ok = h.QuantileArrival(i, alpha)
			x -= tau
		case "rt":
			x, ok = decision.SolveRTExact(h, i, tau, target)
		case "cost":
			x, ok = decision.SolveCostExact(h, i, tau, target)
		}
		if !ok {
			break // no more mass
		}
		if x < now {
			x = now
		}
		if x > now+horizon {
			break
		}
		entries = append(entries, PlanEntry{QueryIndex: i, CreateAt: x, LeadSecs: x - now})
	}
	resp := &Plan{Now: now, Variant: variant, Target: target, Kappa: kappa}
	if len(entries) > 0 { // an empty round keeps a nil plan: it encodes as null
		resp.Plan = make([]PlanEntry, len(entries))
		copy(resp.Plan, entries)
	}
	*buf = entries
	planBuffers.Put(buf)
	ent = &planEntry{plan: resp}
	e.mu.Lock()
	if len(rc.plans) >= maxCachedResults {
		clear(rc.plans)
	}
	rc.plans[key] = ent
	e.mu.Unlock()
	return ent, false, nil
}

// ClockSlot returns the start of the Dt/4 slot (the planning grid step)
// that holds now. Requests anchored on the clock rather than on an
// explicit time are keyed on it, so polls within one slot share a cached
// result.
func ClockSlot(now, dt float64) float64 {
	q := dt / 4
	return math.Floor(now/q) * q
}

// planAlpha validates a planning round's parameters and returns the α
// that κ (and the hp quantiles) use: 1 − target for hp, 0.1 for rt and
// cost.
func planAlpha(variant string, target, horizon, now float64) (float64, error) {
	// A NaN passes every range check below (all comparisons false) and
	// eventually poisons the decision horizon into an index panic.
	for _, v := range []float64{now, target, horizon} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: non-finite plan parameter", ErrInvalid)
		}
	}
	switch variant {
	case "hp":
		if target <= 0 || target >= 1 {
			return 0, fmt.Errorf("%w: hp target must be in (0,1)", ErrInvalid)
		}
		return 1 - target, nil
	case "rt", "cost":
		return 0.1, nil
	}
	return 0, fmt.Errorf("%w: unknown variant %q", ErrInvalid, variant)
}

// ForecastPoint is one sample of the predicted intensity.
type ForecastPoint struct {
	T   float64 `json:"t"`
	QPS float64 `json:"qps"`
}

// forecastEntry is one cached forecast: the points, plus — rendered
// lazily, on the first repeat of the key — the exact HTTP response
// body, so a repeated dashboard query costs one map lookup and one
// Write instead of a resample and a re-marshal. pts is immutable
// after creation and may be read without the lock; body is guarded by
// the engine mutex.
type forecastEntry struct {
	pts  []ForecastPoint
	body []byte
}

// Forecast samples the modeled mean intensity on [from, to) at the
// given step: point i reports the model's average rate over
// [from+i·step, from+(i+1)·step), read in O(1) off the model's
// cumulative-intensity prefix table — the whole horizon costs O(points)
// regardless of the training window size. Like Plan, results are cached
// per (from, to, step) until the next train, restore or config update
// (ingest keeps them); the returned slice is shared with the cache and
// must be treated as read-only.
func (e *Engine) Forecast(from, to, step float64) ([]ForecastPoint, error) {
	ent, _, err := e.forecast(from, to, step)
	if err != nil {
		return nil, err
	}
	return ent.pts, nil
}

// ForecastJSON is Forecast returning the rendered HTTP response body
// (a JSON array of points, newline-terminated — byte-identical to
// encoding the Forecast result). As with PlanJSON, the body is cached
// next to the points once the key is served a second time, so the
// steady state of a dashboard polling one query is a map hit followed
// by a single buffer write. Keys served once keep no body: a default
// forecast is anchored on the clock, so its key never repeats.
func (e *Engine) ForecastJSON(from, to, step float64) ([]byte, error) {
	ent, hit, err := e.forecast(from, to, step)
	if err != nil {
		return nil, err
	}
	if !hit {
		return marshalBody(ent.pts)
	}
	return e.renderBody(&ent.body, &ent.pts) // a pointer boxes into any without allocating
}

// marshalBody renders v as json.Encoder writes it: json.Marshal plus
// the trailing newline.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// renderBody returns the response body cached in *slot, rendering v
// into it (marshalBody) when it is still empty. The render runs outside the lock; if two callers
// race, the first stored body wins, so every caller serves the same
// buffer. slot must point into a cache entry guarded by e.mu; an entry
// lives as long as the model and config it was computed from, so a body
// rendered for it is never stale.
func (e *Engine) renderBody(slot *[]byte, v any) ([]byte, error) {
	e.mu.Lock()
	body := *slot
	e.mu.Unlock()
	if body != nil {
		return body, nil
	}
	body, err := marshalBody(v)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if *slot == nil {
		*slot = body
	}
	body = *slot
	e.mu.Unlock()
	return body, nil
}

// forecast returns the cache entry for (from, to, step), computing and
// caching it on a miss, and reports whether it was a hit. Every call
// counts exactly one forecast cache hit or miss.
func (e *Engine) forecast(from, to, step float64) (*forecastEntry, bool, error) {
	err := checkForecastRange(from, to, step)
	key := forecastKey{from: from, to: to, step: step}

	e.mu.Lock()
	model := e.model
	if model == nil || err != nil {
		e.mu.Unlock()
		if model == nil {
			return nil, false, ErrNoModel
		}
		return nil, false, err
	}
	rc := e.resultsLocked()
	ent, hit := rc.forecasts[key]
	e.mu.Unlock()
	if hit {
		e.m.forecastHits.Inc()
		if f := e.fleet; f != nil {
			f.forecastHits.Inc()
		}
		return ent, true, nil
	}
	e.m.forecastMisses.Inc()
	if f := e.fleet; f != nil {
		f.forecastMisses.Inc()
	}
	// Count points by index, not accumulation: at large magnitudes
	// from + n·step can round back onto itself, so derive n from the
	// span and nudge it onto the same t >= to boundary the index loop
	// would have used.
	n := int(math.Ceil((to - from) / step))
	for n > 0 && from+float64(n-1)*step >= to {
		n--
	}
	for from+float64(n)*step < to {
		n++
	}
	pts := make([]ForecastPoint, n)
	vals := make([]float64, n)
	model.NHPP.AverageRates(from, step, vals)
	for i := range pts {
		pts[i] = ForecastPoint{T: from + float64(i)*step, QPS: vals[i]}
	}
	ent = &forecastEntry{pts: pts}
	e.mu.Lock()
	if len(rc.forecasts) >= maxCachedResults {
		clear(rc.forecasts)
	}
	rc.forecasts[key] = ent
	e.mu.Unlock()
	return ent, false, nil
}

// checkForecastRange rejects a forecast range the point loop can't walk.
func checkForecastRange(from, to, step float64) error {
	// NaN bounds defeat every comparison below and make the point count
	// nonsensical; direct API callers don't pass the HTTP layer's
	// screening.
	for _, v := range []float64{from, to, step} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite forecast parameter", ErrInvalid)
		}
	}
	if step <= 0 || to <= from || (to-from)/step > 100000 {
		return fmt.Errorf("%w: invalid range/step", ErrInvalid)
	}
	return nil
}

// ExpectedArrivals returns Λ(from, to) — the model's expected arrival
// count over [from, to) — read in O(1) off the cumulative-intensity
// prefix table. This is the analyzer signal the autoscaler pipeline
// sizes replica pools from: the pool must cover the arrivals expected
// during its replenish lead time.
func (e *Engine) ExpectedArrivals(from, to float64) (float64, error) {
	model := e.Model()
	if model == nil {
		return 0, ErrNoModel
	}
	for _, v := range []float64{from, to} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: non-finite arrival-count bound", ErrInvalid)
		}
	}
	if to < from {
		return 0, fmt.Errorf("%w: inverted arrival-count range [%g, %g)", ErrInvalid, from, to)
	}
	return model.NHPP.Integral(from, to), nil
}

// Model returns the currently installed arrival model, or nil before the
// first successful Train. The model is immutable once installed (refits
// swap the pointer), so callers may use it without further locking —
// e.g. to build a policy over the engine-trained forecast.
func (e *Engine) Model() *train.Model {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.model
}

// Status is a workload snapshot.
type Status struct {
	Arrivals      int     `json:"arrivals_recorded"`
	TrainedOn     int     `json:"arrivals_in_model"`
	ModelReady    bool    `json:"model_ready"`
	PeriodSeconds float64 `json:"period_seconds"`
	RateNow       float64 `json:"rate_now_qps"`
	ConfigVersion int64   `json:"config_version"`
}

// Status reports the workload's ingestion and model state.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statusLocked()
}

// statusLocked builds the Status under the caller's lock; shared by
// Status and Stats so the two endpoints can never drift apart.
func (e *Engine) statusLocked() Status {
	st := Status{
		Arrivals:      len(e.arrivals),
		TrainedOn:     e.trainedN,
		ModelReady:    e.model != nil,
		ConfigVersion: e.ec.Version,
	}
	if e.model != nil {
		st.PeriodSeconds = e.model.PeriodSeconds
		st.RateNow = e.model.Rate(e.cfg.Now())
	}
	return st
}
