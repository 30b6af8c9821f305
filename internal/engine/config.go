package engine

// Per-workload configuration. The paper's whole premise is that every
// workload has its own arrival dynamics and QoS targets, so the knobs
// that shape one workload's modeling and planning — bin width, pending
// time, history window, Monte Carlo budget, per-variant plan targets
// and the retrain cadence — live in a versioned EngineConfig that is
// persisted in the workload's snapshot and settable at runtime through
// the control plane (GET/PUT /v1/workloads/{id}/config). The process
// flags on scalerd only seed the fleet-wide defaults a new workload
// starts from.

import (
	"errors"
	"fmt"
	"math"
)

// ErrConflict reports a config update whose Version no longer matches
// the workload's current config — optimistic concurrency for the PUT
// config API. The HTTP layer maps it to 409.
var ErrConflict = errors.New("config version conflict")

// EngineConfig is one workload's policy: every field is per-workload,
// persisted in the workload's snapshot, and updatable at runtime.
// Version counts successful updates (starting at 1) and is the
// compare-and-swap token for concurrent updaters.
type EngineConfig struct {
	// Version is bumped on every successful update. An update must carry
	// the version it read, so two racing PUTs cannot silently stomp each
	// other.
	Version int64 `json:"version"`
	// Dt is the modeling bin width in seconds. Changing it marks the
	// model stale (its binning no longer matches) for the next retrain.
	Dt float64 `json:"dt"`
	// Pending is the instance startup time τ in seconds.
	Pending float64 `json:"pending"`
	// HistoryWindow bounds the retained arrival history in seconds;
	// 0 keeps everything. Shrinking it trims immediately.
	HistoryWindow float64 `json:"history_window"`
	// MCSamples was the Monte Carlo budget of the rt/cost plan variants,
	// which are now solved exactly. It is still accepted, validated and
	// persisted so existing configs and snapshots keep working, but it
	// changes no plan.
	MCSamples int `json:"mc_samples"`
	// HPTarget is the default hit-probability target for hp plans when
	// the request does not specify one.
	HPTarget float64 `json:"hp_target"`
	// RTTarget is the default wait budget (seconds) for rt plans.
	RTTarget float64 `json:"rt_target"`
	// CostTarget is the default idle budget (seconds) for cost plans.
	CostTarget float64 `json:"cost_target"`
	// PlanHorizon is the default planning horizon in seconds.
	PlanHorizon float64 `json:"plan_horizon"`
	// RetrainEvery is the minimum seconds between background refits of
	// this workload; 0 refits whenever data is stale, on every sweep.
	// It gates only the background retrainer — an explicit train request
	// always runs.
	RetrainEvery float64 `json:"retrain_every"`
	// Train tunes model fitting for this workload.
	Train TrainKnobs `json:"train"`
	// WAL tunes this workload's write-ahead-log durability.
	WAL WALKnobs `json:"wal"`
	// Autoscale tunes this workload's closed-loop replica
	// recommendations (internal/pipeline).
	Autoscale AutoscaleKnobs `json:"autoscale"`
}

// AutoscaleKnobs is the per-workload slice of the closed-loop
// autoscaler configuration: the recommendation target plus the
// HPA-style behaviors that shape how fast the replica count may move.
// The zero value means "autoscaling off, every behavior unbounded" —
// snapshots written before this struct existed restore into it and
// behave exactly as before (plans are still served; nothing acts on
// them until Enabled is set).
type AutoscaleKnobs struct {
	// Enabled turns the background actuation loop on for this workload.
	// The recommendation endpoint answers either way — dry-run
	// inspection of the decision must not require enabling actuation.
	Enabled bool `json:"enabled"`
	// MinReplicas floors the recommended pool size; the optimizer never
	// recommends below it even when the forecast goes quiet.
	MinReplicas int `json:"min_replicas"`
	// MaxReplicas caps the recommended pool size; 0 means uncapped
	// (bounded only by the engine-wide sanity cap).
	MaxReplicas int `json:"max_replicas"`
	// Target is the readiness probability the pool must cover: the pool
	// is sized to the Target-quantile of the forecast arrival count over
	// the replenish lead time. 0 uses the workload's hp_target.
	Target float64 `json:"target"`
	// LeadSeconds is the horizon the pool must cover — how far ahead
	// arrivals draw on instances committed now. 0 derives it from the
	// workload's pending time plus the decision interval.
	LeadSeconds float64 `json:"lead_seconds"`
	// IntervalSeconds rate-limits background decisions for this workload
	// (the sweep cadence is fleet-wide; a workload is skipped until its
	// own interval has passed). 0 decides on every sweep.
	IntervalSeconds float64 `json:"interval_seconds"`
	// ScaleUpMaxStep bounds how many replicas one decision may add;
	// 0 means unbounded.
	ScaleUpMaxStep int `json:"scale_up_max_step"`
	// ScaleDownMaxStep bounds how many replicas one decision may remove;
	// 0 means unbounded.
	ScaleDownMaxStep int `json:"scale_down_max_step"`
	// ScaleDownStabilizationSeconds is the HPA-style trailing window: a
	// scale-down is clamped to the highest recommendation made within
	// it, so a transient dip never drops capacity a recent decision
	// still wanted. 0 disables the window.
	ScaleDownStabilizationSeconds float64 `json:"scale_down_stabilization_seconds"`
	// ScaleDownCooldownSeconds is the minimum spacing between two
	// scale-downs; until it passes, a down verdict holds at the current
	// count. 0 disables the cooldown.
	ScaleDownCooldownSeconds float64 `json:"scale_down_cooldown_seconds"`
}

// WALKnobs is the per-workload slice of write-ahead-log configuration.
// The zero value means "process defaults" — snapshots written before
// this struct existed restore into it and behave exactly as before.
type WALKnobs struct {
	// Fsync overrides the process-wide fsync policy for this workload's
	// log: "always" (fsync before every ack — zero acknowledged loss
	// even through power failure), "interval" (fsync on a timer — a
	// crash loses at most the interval, a kill -9 loses nothing) or
	// "off" (the OS decides). "" keeps the process default.
	Fsync string `json:"fsync,omitempty"`
}

// TrainKnobs is the per-workload slice of the training configuration:
// the ADMM solver budget and the warm-start switch. The zero value means
// "fleet defaults" — snapshots written before this struct existed
// restore into it and behave exactly as before (library-default solver
// budget, warm starts enabled).
type TrainKnobs struct {
	// ADMMMaxIter caps ADMM iterations per fit; 0 keeps the fleet
	// default. Lowering it trades fit quality for bounded refit latency
	// on pathological windows.
	ADMMMaxIter int `json:"admm_max_iter"`
	// ADMMTol is the ADMM convergence tolerance; 0 keeps the fleet
	// default. Tightening it buys smoother intensities at the cost of
	// iterations — warm starts absorb most of that cost on refits.
	ADMMTol float64 `json:"admm_tol"`
	// DisableWarmStart forces every refit to run from the cold per-bin
	// MLE initial guess. Warm starts converge to the same model (the
	// objective is strictly convex), so this is a diagnostic escape
	// hatch, not a correctness knob.
	DisableWarmStart bool `json:"disable_warm_start"`
	// DisablePeriodicity turns the periodicity detector off for this
	// workload: the model fits a single homogeneous-rate profile even if
	// the history looks seasonal. For workloads whose apparent seasonality
	// is spurious (batch jobs, replayed traffic), this stops the seasonal
	// layer from hallucinating structure.
	DisablePeriodicity bool `json:"disable_periodicity"`
	// CandidatePeriods restricts the periodicity detector to these
	// periods, in seconds (±10%); empty keeps the unrestricted scan. For
	// workloads whose cadence is known a priori — daily crons, weekly
	// batch cycles — this prevents the detector from locking onto a
	// transient harmonic.
	CandidatePeriods []float64 `json:"candidate_periods,omitempty"`
}

// maxCandidatePeriods caps the candidate-period list an API caller can
// configure.
const maxCandidatePeriods = 32

// equalPeriods reports whether two candidate-period lists are
// identical. TrainKnobs carries a slice, so the struct is not
// comparable with == anymore; staleness detection compares field-wise.
func equalPeriods(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mcSamplesCap bounds mc_samples. The knob no longer changes any plan;
// the bound keeps the config plane's accepted range unchanged.
const mcSamplesCap = 1_000_000

// maxReplicasCap bounds the replica counts an API caller can configure
// (and the optimizer can recommend): past a million instances the pool
// model stops describing anything real and the arithmetic starts to.
const maxReplicasCap = 1_000_000

// maxSeconds bounds duration-like config values (~31 years) so a typo
// can't wedge arithmetic downstream.
const maxSeconds = 1e9

// validate rejects unusable per-workload settings. Unlike the
// constructor-time Config.validate it never normalizes: an API update
// with a bad field is an error, not a silent correction. Errors wrap
// ErrInvalid so the HTTP layer maps them to 400.
func (c EngineConfig) validate() error {
	for name, v := range map[string]float64{
		"dt": c.Dt, "pending": c.Pending, "history_window": c.HistoryWindow,
		"hp_target": c.HPTarget, "rt_target": c.RTTarget, "cost_target": c.CostTarget,
		"plan_horizon": c.PlanHorizon, "retrain_every": c.RetrainEvery,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite %s", ErrInvalid, name)
		}
	}
	if c.Version < 1 {
		return fmt.Errorf("%w: config version %d must be >= 1", ErrInvalid, c.Version)
	}
	if c.Dt <= 0 || c.Dt > maxSeconds {
		return fmt.Errorf("%w: dt %g outside (0, %g] seconds", ErrInvalid, c.Dt, maxSeconds)
	}
	if c.Pending < 0 || c.Pending > maxSeconds {
		return fmt.Errorf("%w: pending %g outside [0, %g] seconds", ErrInvalid, c.Pending, maxSeconds)
	}
	if c.HistoryWindow < 0 || c.HistoryWindow > maxSeconds {
		return fmt.Errorf("%w: history_window %g outside [0, %g] seconds", ErrInvalid, c.HistoryWindow, maxSeconds)
	}
	if c.MCSamples < 1 || c.MCSamples > mcSamplesCap {
		return fmt.Errorf("%w: mc_samples %d outside [1, %d]", ErrInvalid, c.MCSamples, mcSamplesCap)
	}
	if c.HPTarget <= 0 || c.HPTarget >= 1 {
		return fmt.Errorf("%w: hp_target %g must be in (0,1)", ErrInvalid, c.HPTarget)
	}
	if c.RTTarget <= 0 || c.RTTarget > maxSeconds {
		return fmt.Errorf("%w: rt_target %g outside (0, %g] seconds", ErrInvalid, c.RTTarget, maxSeconds)
	}
	if c.CostTarget <= 0 || c.CostTarget > maxSeconds {
		return fmt.Errorf("%w: cost_target %g outside (0, %g] seconds", ErrInvalid, c.CostTarget, maxSeconds)
	}
	if c.PlanHorizon <= 0 || c.PlanHorizon > maxSeconds {
		return fmt.Errorf("%w: plan_horizon %g outside (0, %g] seconds", ErrInvalid, c.PlanHorizon, maxSeconds)
	}
	if c.RetrainEvery < 0 || c.RetrainEvery > maxSeconds {
		return fmt.Errorf("%w: retrain_every %g outside [0, %g] seconds", ErrInvalid, c.RetrainEvery, maxSeconds)
	}
	if it := c.Train.ADMMMaxIter; it < 0 || it > 1_000_000 {
		return fmt.Errorf("%w: train.admm_max_iter %d outside [0, 1000000]", ErrInvalid, it)
	}
	if tol := c.Train.ADMMTol; math.IsNaN(tol) || tol < 0 || tol >= 1 {
		return fmt.Errorf("%w: train.admm_tol %g outside [0, 1)", ErrInvalid, tol)
	}
	if n := len(c.Train.CandidatePeriods); n > maxCandidatePeriods {
		return fmt.Errorf("%w: train.candidate_periods has %d entries (max %d)", ErrInvalid, n, maxCandidatePeriods)
	}
	for _, p := range c.Train.CandidatePeriods {
		// A period must span at least two modeling bins to be detectable.
		if math.IsNaN(p) || p < 2*c.Dt || p > maxSeconds {
			return fmt.Errorf("%w: train.candidate_periods entry %g outside [2*dt=%g, %g] seconds", ErrInvalid, p, 2*c.Dt, maxSeconds)
		}
	}
	switch c.WAL.Fsync {
	case "", "always", "interval", "off":
	default:
		return fmt.Errorf("%w: wal.fsync %q not one of always/interval/off (or empty for the process default)", ErrInvalid, c.WAL.Fsync)
	}
	if err := c.Autoscale.validate(); err != nil {
		return err
	}
	return nil
}

// validate rejects unusable autoscale knobs, with the same field-level
// error contract as the enclosing EngineConfig.validate.
func (a AutoscaleKnobs) validate() error {
	for name, v := range map[string]float64{
		"autoscale.target": a.Target, "autoscale.lead_seconds": a.LeadSeconds,
		"autoscale.interval_seconds":                 a.IntervalSeconds,
		"autoscale.scale_down_stabilization_seconds": a.ScaleDownStabilizationSeconds,
		"autoscale.scale_down_cooldown_seconds":      a.ScaleDownCooldownSeconds,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite %s", ErrInvalid, name)
		}
	}
	if a.MinReplicas < 0 || a.MinReplicas > maxReplicasCap {
		return fmt.Errorf("%w: autoscale.min_replicas %d outside [0, %d]", ErrInvalid, a.MinReplicas, maxReplicasCap)
	}
	if a.MaxReplicas < 0 || a.MaxReplicas > maxReplicasCap {
		return fmt.Errorf("%w: autoscale.max_replicas %d outside [0, %d]", ErrInvalid, a.MaxReplicas, maxReplicasCap)
	}
	if a.MaxReplicas > 0 && a.MinReplicas > a.MaxReplicas {
		return fmt.Errorf("%w: autoscale.min_replicas %d exceeds autoscale.max_replicas %d", ErrInvalid, a.MinReplicas, a.MaxReplicas)
	}
	if a.Target != 0 && (a.Target <= 0 || a.Target >= 1) {
		return fmt.Errorf("%w: autoscale.target %g must be in (0,1), or 0 for the workload's hp_target", ErrInvalid, a.Target)
	}
	if a.LeadSeconds < 0 || a.LeadSeconds > maxSeconds {
		return fmt.Errorf("%w: autoscale.lead_seconds %g outside [0, %g] seconds", ErrInvalid, a.LeadSeconds, maxSeconds)
	}
	if a.IntervalSeconds < 0 || a.IntervalSeconds > maxSeconds {
		return fmt.Errorf("%w: autoscale.interval_seconds %g outside [0, %g] seconds", ErrInvalid, a.IntervalSeconds, maxSeconds)
	}
	if a.ScaleUpMaxStep < 0 || a.ScaleUpMaxStep > maxReplicasCap {
		return fmt.Errorf("%w: autoscale.scale_up_max_step %d outside [0, %d]", ErrInvalid, a.ScaleUpMaxStep, maxReplicasCap)
	}
	if a.ScaleDownMaxStep < 0 || a.ScaleDownMaxStep > maxReplicasCap {
		return fmt.Errorf("%w: autoscale.scale_down_max_step %d outside [0, %d]", ErrInvalid, a.ScaleDownMaxStep, maxReplicasCap)
	}
	if w := a.ScaleDownStabilizationSeconds; w < 0 || w > maxSeconds {
		return fmt.Errorf("%w: autoscale.scale_down_stabilization_seconds %g outside [0, %g] seconds", ErrInvalid, w, maxSeconds)
	}
	if cd := a.ScaleDownCooldownSeconds; cd < 0 || cd > maxSeconds {
		return fmt.Errorf("%w: autoscale.scale_down_cooldown_seconds %g outside [0, %g] seconds", ErrInvalid, cd, maxSeconds)
	}
	return nil
}

// EngineConfig returns the workload's current configuration.
func (e *Engine) EngineConfig() EngineConfig {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ec
}

// SetEngineConfig replaces the workload's configuration. The supplied
// Version must equal the current one (read it via EngineConfig); on
// success the stored config carries Version+1 and is returned. A stale
// Version returns ErrConflict and the current config, so the caller can
// re-read, re-apply and retry.
//
// Side effects are applied immediately: every cached plan/forecast is
// invalidated (results depend on the config), a Dt change marks the
// model stale for the next retrain sweep (its binning no longer matches
// the config), and a shrunken HistoryWindow trims the arrival history
// in place. The update is durable at the next snapshot tick — the
// config rides in the workload's snapshot, and the change marks the
// workload dirty.
func (e *Engine) SetEngineConfig(c EngineConfig) (EngineConfig, error) {
	if err := c.validate(); err != nil {
		return EngineConfig{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.Version != e.ec.Version {
		return e.ec, fmt.Errorf("%w: update carries version %d, current is %d", ErrConflict, c.Version, e.ec.Version)
	}
	old := e.ec
	c.Version = old.Version + 1
	e.ec = c
	e.results = nil
	e.stateGen++
	if c.Dt != old.Dt {
		// The model was fit on the old binning: stale, refit next sweep.
		// (The gen bump also clears a failed-fit marker — a fit that
		// failed under the old config may succeed under the new one.)
		e.gen++
	}
	if c.Train.ADMMMaxIter != old.Train.ADMMMaxIter || c.Train.ADMMTol != old.Train.ADMMTol ||
		c.Train.DisablePeriodicity != old.Train.DisablePeriodicity ||
		!equalPeriods(c.Train.CandidatePeriods, old.Train.CandidatePeriods) {
		// The model was fit under a different solver budget or periodicity
		// policy: stale, so the next sweep refits with the new one.
		e.gen++
	}
	if c.HistoryWindow != old.HistoryWindow {
		n := len(e.arrivals)
		e.trimLocked()
		if len(e.arrivals) != n {
			e.gen++ // data under the model changed
		}
	}
	if c.WAL.Fsync != old.WAL.Fsync {
		e.applyWALPolicyLocked()
	}
	e.markStaleLocked()
	return e.ec, nil
}

// StateGen returns the workload's durable-state generation: a counter
// bumped by every mutation a snapshot must capture (ingest, train,
// restore, config update). The snapshotter compares it against the
// generation it last persisted to skip unchanged workloads.
func (e *Engine) StateGen() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stateGen
}
