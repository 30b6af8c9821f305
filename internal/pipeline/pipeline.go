// Package pipeline closes the loop the paper leaves open: it turns
// NHPP forecasts into replica counts and replica counts into cluster
// mutations, as a staged Collect → Analyze → Optimize → Actuate
// pipeline with an explicit interface per stage.
//
//   - Collector gathers the decision inputs: the workload's ingestion
//     state and the live replica state of whatever backend actuates it.
//   - Analyzer is the existing NHPP fit/forecast seam — *engine.Engine
//     satisfies it directly, so the plan/forecast bytes a rewired
//     control plane serves are the engine's own rendered bodies.
//   - Optimizer turns the forecast into a replica recommendation with
//     HPA-style behaviors: per-workload min/max replicas, scale-up/down
//     rate steps, a scale-down stabilization window and a scale-down
//     cooldown (knobs in EngineConfig.Autoscale, settable through the
//     config plane).
//   - Actuator applies the decision: a no-op dry-run backend that only
//     records it, or a simulated cluster that models instance creation
//     with the workload's pending time.
//
// A Controller wires the four stages for one workload and a Manager
// multiplexes controllers across the registry, with a background Loop
// sweeping the enabled workloads the way the engine's Retrainer sweeps
// stale models. The same Optimizer drives the closed-loop scorecard:
// SimPolicy adapts a Decider to internal/sim's Autoscaler interface so
// a generated trace can be replayed through ingest → analyze →
// optimize → actuate → simulate and scored against the paper's BP and
// AdapBP baselines (internal/scenario, CLOSEDLOOP.json).
package pipeline

import (
	"fmt"
	"log"
	"sync"
	"time"

	"robustscaler/internal/engine"
)

// Analyzer is the model seam between the control plane and the
// pipeline: the NHPP fit/forecast surface plans, forecasts and
// recommendations are served from. *engine.Engine satisfies it.
type Analyzer interface {
	// PlanJSON computes upcoming instance creation times (the paper's
	// per-query creation plan): the rendered HTTP response body when
	// the round was served before, otherwise the plan itself for the
	// caller to encode.
	PlanJSON(req engine.PlanRequest) (body []byte, plan *engine.Plan, err error)
	// ForecastJSON renders the predicted intensity over [from, to) at
	// the given step as the HTTP response body.
	ForecastJSON(from, to, step float64) ([]byte, error)
	// ExpectedArrivals returns Λ(from, to), the expected arrival count.
	ExpectedArrivals(from, to float64) (float64, error)
	// EngineConfig returns the workload's current configuration (the
	// autoscale knobs ride in it).
	EngineConfig() engine.EngineConfig
	// Now reads the workload's clock.
	Now() float64
}

// Engine is the analyzer the production pipeline runs over.
var _ Analyzer = (*engine.Engine)(nil)

// Collector gathers the decision inputs for one workload: arrival/model
// state from the analyzer and live replica state from the actuator.
type Collector interface {
	Collect(now float64) (Sample, error)
}

// Sample is one collected decision input set.
type Sample struct {
	// Now anchors the decision (workload clock seconds).
	Now float64 `json:"now"`
	// Arrivals is the recorded arrival count; ModelReady reports
	// whether a trained model is installed.
	Arrivals   int  `json:"arrivals_recorded"`
	ModelReady bool `json:"model_ready"`
	// Replicas is the actuator's live replica state.
	Replicas ReplicaState `json:"replicas"`
}

// engineCollector is the production Collector: engine status + actuator
// state.
type engineCollector struct {
	eng *engine.Engine
	act Actuator
	id  string
}

func (c *engineCollector) Collect(now float64) (Sample, error) {
	st := c.eng.Status()
	return Sample{
		Now:        now,
		Arrivals:   st.Arrivals,
		ModelReady: st.ModelReady,
		Replicas:   c.act.State(c.id, now),
	}, nil
}

// Controller runs the staged pipeline for one workload: it owns the
// decision state (trailing recommendations, cooldown stamp) and the
// collected/actuated halves around the pure Decider.
type Controller struct {
	id   string
	eng  *engine.Engine
	coll Collector
	act  Actuator

	mu  sync.Mutex
	dec Decider
	// last is the most recent recommendation ("" verdict before the
	// first); lastErr the most recent decision failure, cleared by the
	// next success.
	last    *Recommendation
	lastErr string
	// lastDecideAt gates the background sweep against the workload's
	// IntervalSeconds, like RetrainEvery gates the retrainer. Only Step
	// stamps it: served recommendations are reads.
	lastDecideAt float64
	hasDecided   bool

	m *Metrics
}

// Analyzer returns the controller's model seam — the handle the control
// plane serves plans and forecasts through.
func (c *Controller) Analyzer() Analyzer { return c.eng }

// Workload returns the workload ID the controller scales.
func (c *Controller) Workload() string { return c.id }

// Recommend runs Collect → Analyze → Optimize for one decision without
// actuating it — the GET recommendation endpoint. The decision is
// recorded in the stabilization history: a recommendation served to an
// operator is a decision made, and the anti-flapping windows must see
// it. It does not restart the sweep's interval clock — only Step does —
// so reads polled faster than interval_seconds cannot starve
// actuation.
func (c *Controller) Recommend() (*Recommendation, error) {
	return c.decide(false)
}

// Step runs one full pipeline pass: Collect → Analyze → Optimize →
// Actuate. The background loop calls it on every sweep for enabled
// workloads.
func (c *Controller) Step() (*Recommendation, error) {
	return c.decide(true)
}

func (c *Controller) decide(actuate bool) (*Recommendation, error) {
	start := time.Now()
	now := c.eng.Now()
	sample, err := c.coll.Collect(now)
	if err != nil {
		return nil, c.fail(fmt.Errorf("pipeline: collect %s: %w", c.id, err))
	}
	ec := c.eng.EngineConfig()
	knobs := ec.Autoscale
	lead := leadSeconds(knobs, ec.Pending)
	lambda, err := c.eng.ExpectedArrivals(now, now+lead)
	if err != nil {
		return nil, c.fail(fmt.Errorf("pipeline: analyze %s: %w", c.id, err))
	}
	target := knobs.Target
	if target == 0 {
		target = ec.HPTarget
	}

	c.mu.Lock()
	rec := c.dec.Decide(DecideInput{
		Now:     now,
		Lambda:  lambda,
		Lead:    lead,
		Target:  target,
		Current: sample.Replicas.Current,
		Knobs:   knobs,
	})
	rec.Workload = c.id
	rec.Sample = &sample
	c.last = &rec
	c.lastErr = ""
	if actuate {
		c.lastDecideAt = now
		c.hasDecided = true
	}
	c.mu.Unlock()

	if c.m != nil {
		c.m.countRecommendation(&rec, time.Since(start).Seconds())
	}
	if actuate && knobs.Enabled {
		if err := c.act.Apply(c.id, rec.Desired, now); err != nil {
			return &rec, c.fail(fmt.Errorf("pipeline: actuate %s: %w", c.id, err))
		}
		if c.m != nil {
			c.m.actuations.Inc()
		}
	}
	return &rec, nil
}

// fail records a decision failure for Status and passes the error on.
func (c *Controller) fail(err error) error {
	c.mu.Lock()
	c.lastErr = err.Error()
	c.mu.Unlock()
	if c.m != nil {
		c.m.failures.Inc()
	}
	return err
}

// due reports whether the workload's own IntervalSeconds has passed
// since its last Step.
func (c *Controller) due(now, interval float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.hasDecided || interval <= 0 || now-c.lastDecideAt >= interval
}

// Status is the operator-debuggable autoscale state exposed in
// GET /v1/workloads/{id}/stats: the last decision, what clamped it, and
// how much cooldown remains — holds explained without scraping
// /metrics.
type Status struct {
	Enabled bool `json:"enabled"`
	// LastRecommendation is the most recent decision (nil before the
	// first).
	LastRecommendation *Recommendation `json:"last_recommendation,omitempty"`
	// LastError is the most recent decision failure, cleared by the
	// next successful decision.
	LastError string `json:"last_error,omitempty"`
	// CooldownRemainingSeconds is how long scale-downs stay held; 0
	// when free to move.
	CooldownRemainingSeconds float64 `json:"cooldown_remaining_seconds"`
	// Replicas is the actuator's live view.
	Replicas ReplicaState `json:"replicas"`
}

// Status reports the controller's current autoscale state.
func (c *Controller) Status() Status {
	now := c.eng.Now()
	knobs := c.eng.EngineConfig().Autoscale
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Enabled:            knobs.Enabled,
		LastRecommendation: c.last,
		LastError:          c.lastErr,
		Replicas:           c.act.State(c.id, now),
	}
	if cd := knobs.ScaleDownCooldownSeconds; cd > 0 && c.dec.hasScaledDown {
		if rem := cd - (now - c.dec.lastScaleDown); rem > 0 {
			st.CooldownRemainingSeconds = rem
		}
	}
	return st
}

// leadSeconds resolves the pool's replenish lead time: the configured
// override, or the workload's pending time plus its decision interval —
// instances committed now must cover every arrival until the next
// decision's instances are ready.
func leadSeconds(k engine.AutoscaleKnobs, pending float64) float64 {
	if k.LeadSeconds > 0 {
		return k.LeadSeconds
	}
	interval := k.IntervalSeconds
	if interval <= 0 {
		interval = DefaultInterval.Seconds()
	}
	return pending + interval
}

// DefaultInterval is the default background sweep cadence (and the
// interval assumed when deriving a lead time for workloads that set
// neither knob).
const DefaultInterval = 15 * time.Second

// Workloads is the registry surface the Manager multiplexes over;
// *engine.Registry satisfies it.
type Workloads interface {
	Workloads() []string
	Get(id string) (*engine.Engine, bool)
}

// Manager multiplexes per-workload Controllers over a registry,
// creating them on demand and dropping them when their workload is
// deleted or recreated (the controller is bound to the engine pointer
// it was created over).
type Manager struct {
	reg Workloads
	mk  func(id string, e *engine.Engine) Actuator

	mu    sync.Mutex
	ctrls map[string]*Controller
	m     *Metrics
}

// NewManager builds a Manager whose controllers actuate through the
// given backend factory; nil defaults to dry-run actuation.
func NewManager(reg Workloads, mk func(id string, e *engine.Engine) Actuator) *Manager {
	if mk == nil {
		mk = func(string, *engine.Engine) Actuator { return NewDryRun() }
	}
	return &Manager{reg: reg, mk: mk, ctrls: make(map[string]*Controller)}
}

// SetActuatorFactory swaps the backend factory new controllers actuate
// through; nil restores the dry-run default. Call it once at startup,
// before traffic — controllers already created keep their backend.
func (mgr *Manager) SetActuatorFactory(mk func(id string, e *engine.Engine) Actuator) {
	if mk == nil {
		mk = func(string, *engine.Engine) Actuator { return NewDryRun() }
	}
	mgr.mu.Lock()
	mgr.mk = mk
	mgr.mu.Unlock()
}

// For returns the workload's controller, creating it on first use. The
// engine pointer pins controller identity: a deleted-and-recreated
// workload gets a fresh controller (fresh stabilization history), not
// the ghost of the old one.
func (mgr *Manager) For(id string, e *engine.Engine) *Controller {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if c, ok := mgr.ctrls[id]; ok && c.eng == e {
		return c
	}
	act := mgr.mk(id, e)
	c := &Controller{
		id:   id,
		eng:  e,
		coll: &engineCollector{eng: e, act: act, id: id},
		act:  act,
		m:    mgr.m,
	}
	mgr.ctrls[id] = c
	return c
}

// snapshot returns the live controllers (pruning ones whose workload is
// gone).
func (mgr *Manager) snapshot() []*Controller {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	out := make([]*Controller, 0, len(mgr.ctrls))
	for id, c := range mgr.ctrls {
		if e, ok := mgr.reg.Get(id); !ok || e != c.eng {
			delete(mgr.ctrls, id)
			continue
		}
		out = append(out, c)
	}
	return out
}

// SweepOnce runs one actuation pass over every autoscale-enabled
// workload whose per-workload interval has elapsed, returning how many
// decisions ran and how many failed. This is the unit of work the
// background Loop schedules; tests and admin paths can call it
// directly.
func (mgr *Manager) SweepOnce() (decided, failed int) {
	for _, id := range mgr.reg.Workloads() {
		e, ok := mgr.reg.Get(id)
		if !ok {
			continue
		}
		ec := e.EngineConfig()
		if !ec.Autoscale.Enabled {
			continue
		}
		c := mgr.For(id, e)
		if !c.due(e.Now(), ec.Autoscale.IntervalSeconds) {
			continue
		}
		decided++
		if _, err := stepContained(c); err != nil {
			failed++
		}
	}
	return decided, failed
}

// stepContained runs one pipeline pass with panic containment — the
// sweep runs on a bare goroutine where one degenerate workload would
// otherwise take down the whole process (same rationale as the
// retrainer's).
func stepContained(c *Controller) (rec *Recommendation, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fmt.Errorf("pipeline: step panic: %v", r)
			log.Printf("pipeline: actuation step panic for %s (skipped): %v", c.id, r)
		}
	}()
	return c.Step()
}

// Loop is the background actuation loop, Retrainer-shaped: a ticker
// sweeping the enabled workloads, stopped once.
type Loop struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartLoop launches the background actuation sweep on the given
// cadence (the fleet-wide tick; per-workload IntervalSeconds gates
// inside it).
func (mgr *Manager) StartLoop(every time.Duration) *Loop {
	if every <= 0 {
		panic(fmt.Sprintf("pipeline: non-positive actuation period %v", every))
	}
	l := &Loop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-ticker.C:
				if decided, failed := mgr.SweepOnce(); failed > 0 {
					log.Printf("pipeline: actuation sweep: %d decided, %d failed", decided, failed)
				}
			}
		}
	}()
	return l
}

// Stop halts the loop and waits for an in-flight sweep to finish. Safe
// to call more than once.
func (l *Loop) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}
