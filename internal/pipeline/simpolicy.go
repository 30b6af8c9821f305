package pipeline

// SimPolicy adapts the pipeline's Optimize stage to internal/sim's
// Autoscaler interface, closing the loop inside the simulator: every
// planning tick collects the committed pool size from the simulation
// context, analyzes the expected arrivals over the replenish lead from
// the engine-trained model, optimizes through the same Decider the live
// controller runs (min/max, rate steps, stabilization window,
// cooldown), and actuates through sim.Context.Reconcile — the same
// pool actuation the paper's AdapBP baseline uses, so the scorecard
// compares policies, not plumbing.

import (
	"fmt"

	"robustscaler/internal/engine"
	"robustscaler/internal/sim"
)

// SimPolicy replays the Collect → Analyze → Optimize → Actuate stages
// inside a simulation run. Fields are set before the run; the decision
// state resets in Init.
type SimPolicy struct {
	// Analyzer supplies Λ(from, to) — typically the engine trained on
	// the scenario's ingest phase.
	Analyzer Analyzer
	// Knobs are the HPA-style behaviors under test.
	Knobs engine.AutoscaleKnobs
	// Target is the readiness probability (resolved; 0 is invalid
	// here — the scenario resolves defaults before the run).
	Target float64
	// Lead is the replenish lead time in seconds (pending + tick).
	Lead float64

	dec    Decider
	target int
	stats  SimStats
}

// SimStats tallies the replayed decisions for the scorecard.
type SimStats struct {
	Decisions int `json:"decisions"`
	Up        int `json:"up"`
	Down      int `json:"down"`
	Hold      int `json:"hold"`
	Clamped   int `json:"clamped"`
}

// Stats returns the decision tallies of the last run.
func (p *SimPolicy) Stats() SimStats { return p.stats }

// Init implements sim.Autoscaler.
func (p *SimPolicy) Init(*sim.Context) {
	p.dec = Decider{}
	p.target = 0
	p.stats = SimStats{}
}

// OnTick implements sim.Autoscaler: one full pipeline decision.
func (p *SimPolicy) OnTick(ctx *sim.Context, now float64) {
	lambda, err := p.Analyzer.ExpectedArrivals(now, now+p.Lead)
	if err != nil {
		return // no model: leave the pool alone (reactive fallback)
	}
	rec := p.dec.Decide(DecideInput{
		Now:     now,
		Lambda:  lambda,
		Lead:    p.Lead,
		Target:  p.Target,
		Current: ctx.AvailableCount(),
		Knobs:   p.Knobs,
	})
	p.stats.Decisions++
	switch rec.Verdict {
	case VerdictUp:
		p.stats.Up++
	case VerdictDown:
		p.stats.Down++
	default:
		p.stats.Hold++
	}
	if rec.ClampedBy != "" {
		p.stats.Clamped++
	}
	p.target = rec.Desired
	ctx.Reconcile(p.target)
}

// OnArrival implements sim.Autoscaler: the consumed instance is
// replenished toward the current target (the pool model's replenish
// step; the target itself only moves on ticks).
func (p *SimPolicy) OnArrival(ctx *sim.Context, _ sim.Query) {
	ctx.Reconcile(p.target)
}

// String identifies the policy in experiment output.
func (p *SimPolicy) String() string {
	return fmt.Sprintf("Pipeline(target=%g)", p.Target)
}
