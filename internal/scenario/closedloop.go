package scenario

// The closed-loop scorecard: the same corpus traces, replayed through
// the full autoscaler pipeline instead of the bare planning policy.
// Each scenario trains the real engine on the ingest phase, then drives
// the held-out test span through pipeline.SimPolicy — Collect the
// committed pool from the simulator, Analyze expected arrivals off the
// engine-trained NHPP, Optimize through the same HPA-style Decider the
// live controller runs, Actuate with the simulator's reconcile verbs —
// and scores SLO violations and cost against the BP and AdapBP
// baselines. Two pipeline variants run per scenario: "pipeline" with
// every behavior disabled (the paper's pure pool model, decision per
// tick) and "guarded" with a scale-down stabilization window and
// cooldown, which must cut instance churn without giving up the QoS
// floor — the anti-flapping claim, asserted numerically.
//
// Like SCENARIOS.json, the report is a pure function of the base seed:
// the Decider has no clock and no RNG, so reruns are byte-identical
// (CLOSEDLOOP.json is committed and gated in CI).

import (
	"robustscaler/internal/engine"
	"robustscaler/internal/pipeline"
)

// ClosedLoopScenario is one closed-loop corpus entry: a base scenario
// (trace, engine knobs, baselines — its planning Envelope is ignored),
// the behaviors under test for the guarded variant, and the envelope
// the closed-loop scores are gated on.
type ClosedLoopScenario struct {
	Scenario Scenario
	// Guard is the HPA-style behavior set of the guarded variant.
	Guard engine.AutoscaleKnobs
	// Envelope bounds the closed-loop scores.
	Envelope ClosedLoopEnvelope
}

// ClosedLoopEnvelope is the per-scenario closed-loop bounds. A zero
// field skips its check.
type ClosedLoopEnvelope struct {
	// MinHitRate floors the ungated pipeline's hit rate.
	MinHitRate float64 `json:"min_hit_rate,omitempty"`
	// MaxRelativeCost caps the ungated pipeline's relative cost.
	MaxRelativeCost float64 `json:"max_relative_cost,omitempty"`
	// MinHitVsAdapBP floors pipelineHit − adapHit (negative = allowed
	// slack).
	MinHitVsAdapBP float64 `json:"min_hit_vs_adapbp,omitempty"`
	// MaxCostVsAdapBP caps pipelineRelCost / adapRelCost.
	MaxCostVsAdapBP float64 `json:"max_cost_vs_adapbp,omitempty"`
	// MinHitVsBP floors pipelineHit − bpHit.
	MinHitVsBP float64 `json:"min_hit_vs_bp,omitempty"`
	// MinGuardedHitRate floors the guarded variant's hit rate — the
	// behaviors may not buy stability by dropping queries.
	MinGuardedHitRate float64 `json:"min_guarded_hit_rate,omitempty"`
	// MaxGuardedChurnRatio caps guardedCreated / pipelineCreated: the
	// stabilization window and cooldown must reduce instance churn.
	MaxGuardedChurnRatio float64 `json:"max_guarded_churn_ratio,omitempty"`
}

// ClosedLoopScore is one scenario's closed-loop scorecard entry.
type ClosedLoopScore struct {
	Name             string             `json:"name"`
	TestQueries      int                `json:"test_queries"`
	TestSpanSeconds  float64            `json:"test_span_seconds"`
	Pipeline         PolicyScore        `json:"pipeline"`
	Decisions        pipeline.SimStats  `json:"decisions"`
	Guarded          PolicyScore        `json:"guarded"`
	GuardedDecisions pipeline.SimStats  `json:"guarded_decisions"`
	BP               PolicyScore        `json:"bp"`
	AdapBP           PolicyScore        `json:"adapbp"`
	Envelope         ClosedLoopEnvelope `json:"envelope"`
	Checks           []Check            `json:"checks"`
	OK               bool               `json:"ok"`
}

// ClosedLoopReport is the CLOSEDLOOP.json schema. No wall-clock state:
// reruns of the same corpus and seed are byte-identical.
type ClosedLoopReport struct {
	Quick       bool              `json:"quick"`
	Seed        int64             `json:"seed"`
	Scenarios   []ClosedLoopScore `json:"scenarios"`
	EnvelopesOK bool              `json:"envelopes_ok"`
}

// ClosedLoopCorpus returns the committed closed-loop corpus: the
// planning corpus's traces (matched by generator name, so the two
// scorecards exercise identical workloads) under closed-loop envelopes.
// Bounds are calibrated from full runs with margin and must hold in
// quick mode too.
func ClosedLoopCorpus() []ClosedLoopScenario {
	base := make(map[string]Scenario, 8)
	for _, sc := range Corpus() {
		base[sc.Gen.Name()] = sc
	}
	// One guard set across the corpus: a 10-minute scale-down
	// stabilization window, a 1-minute cooldown after each scale-down,
	// and a floor of one warm instance — the runbook defaults the README
	// documents.
	guard := engine.AutoscaleKnobs{
		MinReplicas:                   1,
		ScaleDownStabilizationSeconds: 600,
		ScaleDownCooldownSeconds:      60,
	}
	return []ClosedLoopScenario{
		{
			// The bread-and-butter shape: the pipeline must match the
			// planning policy's QoS-per-cost standing against the
			// baselines, and the behaviors must cut churn hard.
			Scenario: base["diurnal_weekly"],
			Guard:    guard,
			Envelope: ClosedLoopEnvelope{
				MinHitRate:           0.80,
				MaxRelativeCost:      2.0,
				MinHitVsAdapBP:       -0.05,
				MaxCostVsAdapBP:      1.15,
				MinGuardedHitRate:    0.80,
				MaxGuardedChurnRatio: 1.0,
			},
		},
		{
			// Flash crowd: untrained spike in the test window. Both the
			// pipeline and AdapBP react late; the envelope pins bounded
			// degradation, and the guard must not make the recovery worse.
			Scenario: base["flash_crowd"],
			Guard:    guard,
			Envelope: ClosedLoopEnvelope{
				MinHitRate:           0.12,
				MaxRelativeCost:      2.0,
				MinGuardedHitRate:    0.12,
				MaxGuardedChurnRatio: 1.05,
			},
		},
		{
			// Heavy-tailed bursts: the Poisson-degraded regime. The
			// pipeline must still hold the level-accuracy QoS floor at a
			// fraction of AdapBP's cost.
			Scenario: base["heavy_tail"],
			Guard:    guard,
			Envelope: ClosedLoopEnvelope{
				MinHitRate:           0.85,
				MaxRelativeCost:      2.2,
				MinHitVsAdapBP:       -0.03,
				MaxCostVsAdapBP:      0.85,
				MinGuardedHitRate:    0.85,
				MaxGuardedChurnRatio: 1.0,
			},
		},
	}
}

// RunClosedLoop drives one closed-loop scenario and scores it.
func RunClosedLoop(cl ClosedLoopScenario, baseSeed int64, quick bool) (*ClosedLoopScore, error) {
	sc := cl.Scenario
	l, err := setup("closed loop", &sc, baseSeed, quick, 0)
	if err != nil {
		return nil, err
	}
	score := &ClosedLoopScore{
		Name:            l.name,
		TestQueries:     len(l.testQ),
		TestSpanSeconds: l.testEnd - l.frame.TrainEnd,
		Envelope:        cl.Envelope,
	}

	// The pipeline's Analyze stage reads Λ off the engine. The replenish
	// lead is the pool model's horizon: pending time plus one planning
	// tick, matching the live controller's default.
	lead := l.frame.MeanPending + sc.Tick
	plain := &pipeline.SimPolicy{Analyzer: l.eng, Target: sc.HPTarget, Lead: lead}
	if score.Pipeline, err = l.replay(plain); err != nil {
		return nil, err
	}
	score.Decisions = plain.Stats()
	guarded := &pipeline.SimPolicy{Analyzer: l.eng, Knobs: cl.Guard, Target: sc.HPTarget, Lead: lead}
	if score.Guarded, err = l.replay(guarded); err != nil {
		return nil, err
	}
	score.GuardedDecisions = guarded.Stats()
	if score.BP, score.AdapBP, err = l.replayBaselines(&sc); err != nil {
		return nil, err
	}

	score.Checks, score.OK = evaluateClosedLoop(score)
	return score, nil
}

// RunClosedLoopCorpus runs every closed-loop scenario and assembles the
// scorecard. Envelope misses do not abort — the report records them and
// EnvelopesOK goes false, which cmd/scorecard turns into a non-zero
// exit.
func RunClosedLoopCorpus(corpus []ClosedLoopScenario, baseSeed int64, quick bool) (*ClosedLoopReport, error) {
	rep := &ClosedLoopReport{Quick: quick, Seed: baseSeed, EnvelopesOK: true}
	for _, cl := range corpus {
		s, err := RunClosedLoop(cl, baseSeed, quick)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, *s)
		if !s.OK {
			rep.EnvelopesOK = false
		}
	}
	return rep, nil
}

// evaluateClosedLoop applies the closed-loop envelope to the scores.
func evaluateClosedLoop(s *ClosedLoopScore) ([]Check, bool) {
	e := s.Envelope
	var c checks
	c.atLeast("pipeline_hit_rate", s.Pipeline.HitRate, e.MinHitRate)
	c.atMost("pipeline_relative_cost", s.Pipeline.RelativeCost, e.MaxRelativeCost)
	if e.MinHitVsAdapBP != 0 {
		d := s.Pipeline.HitRate - s.AdapBP.HitRate
		c = append(c, Check{Name: "hit_vs_adapbp", Value: round6(d), Bound: e.MinHitVsAdapBP, OK: d >= e.MinHitVsAdapBP})
	}
	if e.MaxCostVsAdapBP > 0 && s.AdapBP.RelativeCost > 0 {
		r := s.Pipeline.RelativeCost / s.AdapBP.RelativeCost
		c = append(c, Check{Name: "cost_vs_adapbp", Value: round6(r), Bound: e.MaxCostVsAdapBP, OK: r <= e.MaxCostVsAdapBP})
	}
	if e.MinHitVsBP != 0 {
		d := s.Pipeline.HitRate - s.BP.HitRate
		c = append(c, Check{Name: "hit_vs_bp", Value: round6(d), Bound: e.MinHitVsBP, OK: d >= e.MinHitVsBP})
	}
	c.atLeast("guarded_hit_rate", s.Guarded.HitRate, e.MinGuardedHitRate)
	if e.MaxGuardedChurnRatio > 0 && s.Pipeline.InstancesCreated > 0 {
		r := float64(s.Guarded.InstancesCreated) / float64(s.Pipeline.InstancesCreated)
		c = append(c, Check{Name: "guarded_churn_ratio", Value: round6(r), Bound: e.MaxGuardedChurnRatio, OK: r <= e.MaxGuardedChurnRatio})
	}
	return c.verdict()
}
