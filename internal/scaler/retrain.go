package scaler

import (
	"fmt"
	"math"

	"robustscaler/internal/sim"
	"robustscaler/internal/timeseries"
	"robustscaler/internal/train"
)

// RetrainConfig controls online model refreshing. The paper notes the
// NHPP only needs retraining at a low frequency (e.g. every half hour);
// the Retraining policy automates that: observed arrivals are appended
// to the count series and the model is refitted on a trailing window,
// after which the inner policy is rebuilt around the fresh forecast.
type RetrainConfig struct {
	// Every is the retraining period in seconds (e.g. 1800).
	Every float64
	// Window bounds the training history in seconds; 0 keeps everything.
	Window float64
	// Train configures each refit.
	Train train.Config
}

// PolicyBuilder constructs the inner autoscaling policy from a model —
// typically a closure over NewRobustScaler.
type PolicyBuilder func(m *train.Model) (sim.Autoscaler, error)

// Retraining wraps an inner RobustScaler policy and refits its model
// periodically from the arrivals observed during the replay.
type Retraining struct {
	cfg    RetrainConfig
	build  PolicyBuilder
	series *timeseries.Series

	inner     sim.Autoscaler
	lastTrain float64
}

// NewRetraining wraps build's policy with periodic retraining. seed is
// the count series the first model is trained on; the policy extends its
// own copy as queries arrive.
func NewRetraining(seed *timeseries.Series, cfg RetrainConfig, build PolicyBuilder) (*Retraining, error) {
	if seed == nil || seed.Len() == 0 {
		return nil, fmt.Errorf("scaler: retraining needs a non-empty seed series")
	}
	if cfg.Every <= 0 {
		return nil, fmt.Errorf("scaler: RetrainConfig.Every must be positive, got %g", cfg.Every)
	}
	if build == nil {
		return nil, fmt.Errorf("scaler: nil PolicyBuilder")
	}
	p := &Retraining{cfg: cfg, build: build, series: seed.Clone()}
	if err := p.refit(); err != nil {
		return nil, err
	}
	return p, nil
}

// refit trains on the trailing window and swaps the inner policy.
func (p *Retraining) refit() error {
	model, err := train.FitWindow(p.series, p.cfg.Window, p.cfg.Train)
	if err != nil {
		return fmt.Errorf("scaler: retraining: %w", err)
	}
	inner, err := p.build(model)
	if err != nil {
		return fmt.Errorf("scaler: rebuilding policy: %w", err)
	}
	p.inner = inner
	return nil
}

// extend pads the count series with empty bins through time t and
// returns t's bin index (negative before the series start).
func (p *Retraining) extend(t float64) int {
	idx := int(math.Floor((t - p.series.Start) / p.series.Dt))
	for idx >= p.series.Len() {
		p.series.Values = append(p.series.Values, 0)
	}
	return idx
}

// Init implements sim.Autoscaler.
func (p *Retraining) Init(ctx *sim.Context) {
	p.lastTrain = ctx.Now()
	p.inner.Init(ctx)
}

// OnTick implements sim.Autoscaler: retrain on schedule, then delegate.
func (p *Retraining) OnTick(ctx *sim.Context, now float64) {
	if now-p.lastTrain >= p.cfg.Every {
		p.lastTrain = now
		// Pad up to now so quiet stretches are part of the history.
		p.extend(now)
		// A failed refit keeps the previous model and policy.
		if err := p.refit(); err == nil {
			p.inner.Init(ctx)
		}
	}
	p.inner.OnTick(ctx, now)
}

// OnArrival implements sim.Autoscaler: record the arrival, then delegate.
func (p *Retraining) OnArrival(ctx *sim.Context, q sim.Query) {
	if idx := p.extend(q.Arrival); idx >= 0 {
		p.series.Values[idx]++
	}
	p.inner.OnArrival(ctx, q)
}
