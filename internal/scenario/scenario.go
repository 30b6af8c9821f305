// Package scenario is the closed-loop harness over the workload corpus
// in internal/gen: each scenario drives a generated trace end-to-end
// through the real engine lifecycle (ingest → train → plan/forecast)
// and then replays the held-out test span in internal/sim, scoring
// forecast accuracy (WAPE and Poisson pinball loss per horizon) and the
// QoS/cost of the engine-trained RobustScaler policy against the BP and
// AdapBP baselines. Every scenario carries an Envelope — hard numeric
// bounds on those scores — asserted on every run; cmd/scorecard writes
// the scorecard as SCENARIOS.json, which is committed and jq-gated in
// CI the same way BENCH_hotpath.json is.
//
// Everything is a pure function of the base seed: the generators and
// the simulator draws derive from it, the engine's plans are
// deterministic, and the report carries no wall-clock state, so two runs of the
// same corpus produce byte-identical scorecards (regression-tested).
package scenario

import (
	"fmt"
	"math"

	"robustscaler/internal/engine"
	"robustscaler/internal/gen"
	"robustscaler/internal/scaler"
	"robustscaler/internal/sim"
	"robustscaler/internal/stats"
	"robustscaler/internal/timeseries"
	"robustscaler/internal/train"
)

// forecastStep is the scoring bin width (seconds): predicted vs actual
// query counts are compared on 10-minute bins.
const forecastStep = 600.0

// Scenario is one corpus entry: a generator plus the engine/simulation
// parameters and the envelope its scores must stay inside.
type Scenario struct {
	// Gen produces the workload trace.
	Gen gen.Generator
	// SeedOffset decorrelates the scenario from its corpus siblings; the
	// effective seed is baseSeed + SeedOffset.
	SeedOffset int64
	// Dt is the engine's modeling bin width, seconds (0 = 60).
	Dt float64
	// AggregateWindow / MinPeriod tune periodicity detection (bins of
	// Dt / bins of the aggregated series); 0 keeps the fleet default.
	AggregateWindow int
	MinPeriod       int
	// Tick is the planning interval Δ for the policy replays (0 = 5).
	Tick float64
	// HPTarget is the RobustScaler-HP hitting-probability target
	// (0 = 0.9).
	HPTarget float64
	// BPSize and AdapFactor parameterize the baseline policies.
	BPSize     int
	AdapFactor float64
	// RetrainAt splits training ingest into two phases at this epoch:
	// the engine first trains on [Start, RetrainAt) only, is scored
	// stale, then ingests the rest and must trip a background-style
	// Retrain before being scored fresh. 0 runs a single phase.
	RetrainAt float64
	// QuickTestSpan truncates the replayed test window in quick mode,
	// seconds after TrainEnd (0 keeps the full window).
	QuickTestSpan float64
	// Envelope bounds the scores.
	Envelope Envelope
}

// Envelope is the per-scenario score bounds. A zero field skips its
// check, so each scenario asserts only the claims its shape supports.
type Envelope struct {
	// MaxWAPE bounds the whole-horizon forecast WAPE.
	MaxWAPE float64 `json:"max_wape,omitempty"`
	// MaxPinball90 bounds the normalized q90 pinball loss.
	MaxPinball90 float64 `json:"max_pinball90,omitempty"`
	// MinPeriodSeconds/MaxPeriodSeconds bound the detected period.
	MinPeriodSeconds float64 `json:"min_period_seconds,omitempty"`
	MaxPeriodSeconds float64 `json:"max_period_seconds,omitempty"`
	// MinHitRate floors the robust policy's hit rate.
	MinHitRate float64 `json:"min_hit_rate,omitempty"`
	// MaxRelativeCost caps the robust policy's relative cost.
	MaxRelativeCost float64 `json:"max_relative_cost,omitempty"`
	// MinHitVsAdapBP floors robustHit − adapHit (negative = allowed
	// slack; the paper's beats-or-matches claim).
	MinHitVsAdapBP float64 `json:"min_hit_vs_adapbp,omitempty"`
	// MaxCostVsAdapBP caps robustRelCost / adapRelCost.
	MaxCostVsAdapBP float64 `json:"max_cost_vs_adapbp,omitempty"`
	// MinRetrainGain floors staleWAPE / freshWAPE for two-phase
	// scenarios: retraining after the regime change must improve the
	// forecast at least this much.
	MinRetrainGain float64 `json:"min_retrain_gain,omitempty"`
}

// ForecastScore is the forecast-accuracy block of a scenario score.
type ForecastScore struct {
	// WAPE is Σ|pred−actual| / Σactual over the whole test horizon.
	WAPE float64 `json:"wape"`
	// WAPEFirstHour is the same over the first hour only.
	WAPEFirstHour float64 `json:"wape_first_hour"`
	// Pinball50/Pinball90 are the mean pinball losses of the Poisson
	// q50/q90 count forecasts, normalized by the mean actual count.
	Pinball50 float64 `json:"pinball50"`
	Pinball90 float64 `json:"pinball90"`
	// Bins is the number of scored forecast bins.
	Bins int `json:"bins"`
}

// PolicyScore is one policy's replay metrics.
type PolicyScore struct {
	HitRate          float64 `json:"hit_rate"`
	RTAvg            float64 `json:"rt_avg_seconds"`
	RTP95            float64 `json:"rt_p95_seconds"`
	RelativeCost     float64 `json:"relative_cost"`
	InstancesCreated int     `json:"instances_created"`
}

// RetrainScore records the two-phase (stale → retrain → fresh) loop.
type RetrainScore struct {
	// StaleWAPE is the forecast error of the model trained before the
	// regime change; FreshWAPE after the post-change refit.
	StaleWAPE float64 `json:"stale_wape"`
	FreshWAPE float64 `json:"fresh_wape"`
	// Gain is StaleWAPE / FreshWAPE.
	Gain float64 `json:"gain"`
	// Refitted asserts the engine's staleness tracking tripped the
	// refit (Retrain reported a run).
	Refitted bool `json:"refitted"`
}

// Check is one evaluated envelope bound.
type Check struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

// Score is one scenario's full scorecard entry.
type Score struct {
	Name            string         `json:"name"`
	TrainQueries    int            `json:"train_queries"`
	TestQueries     int            `json:"test_queries"`
	TestSpanSeconds float64        `json:"test_span_seconds"`
	PeriodSeconds   float64        `json:"detected_period_seconds"`
	Forecast        *ForecastScore `json:"forecast,omitempty"`
	Retrain         *RetrainScore  `json:"retrain,omitempty"`
	Robust          PolicyScore    `json:"robust_hp"`
	BP              PolicyScore    `json:"bp"`
	AdapBP          PolicyScore    `json:"adapbp"`
	Envelope        Envelope       `json:"envelope"`
	Checks          []Check        `json:"checks"`
	OK              bool           `json:"ok"`
}

// Report is the scorecard file schema (SCENARIOS.json). It carries no
// wall-clock state: reruns of the same corpus and seed are
// byte-identical.
type Report struct {
	Quick       bool    `json:"quick"`
	Seed        int64   `json:"seed"`
	Scenarios   []Score `json:"scenarios"`
	EnvelopesOK bool    `json:"envelopes_ok"`
}

// defaults fills the zero-valued knobs.
func (sc *Scenario) defaults() {
	if sc.Dt == 0 {
		sc.Dt = 60
	}
	if sc.Tick == 0 {
		sc.Tick = 5
	}
	if sc.HPTarget == 0 {
		sc.HPTarget = 0.9
	}
}

// trainConfig builds the per-scenario training configuration.
func (sc *Scenario) trainConfig() train.Config {
	cfg := train.DefaultConfig()
	if sc.AggregateWindow > 0 {
		cfg.Periodicity.AggregateWindow = sc.AggregateWindow
	}
	if sc.MinPeriod > 0 {
		cfg.Periodicity.MinPeriod = sc.MinPeriod
	}
	return cfg
}

// loop is one scenario set up for scoring, the state both scorecards
// start from: the generated trace split at TrainEnd (test span clipped
// in quick mode), and the real engine — per-workload config, injectable
// clock pinned to the train/test boundary so plan anchoring is
// reproducible — with the training arrivals ingested and a model
// trained through the same ingest → train path the control plane serves.
type loop struct {
	kind    string // "scenario" or "closed loop": the error prefix
	name    string // the trace's name
	seed    int64
	frame   gen.Frame
	testEnd float64
	// trainArr is every training arrival; the engine has ingested
	// trainArr[:ingested] (all of it unless setup was given a phase cut).
	trainArr []float64
	ingested int
	testQ    []sim.Query
	eng      *engine.Engine
	simCfg   sim.Config
}

// setup builds the loop for sc. phaseCut > 0 ingests and trains only on
// the training arrivals before that epoch — the first phase of a
// two-phase scenario; the caller ingests the rest.
func setup(kind string, sc *Scenario, baseSeed int64, quick bool, phaseCut float64) (*loop, error) {
	if sc.Gen == nil {
		return nil, fmt.Errorf("%s: scenario has no generator", kind)
	}
	sc.defaults()
	seed := baseSeed + sc.SeedOffset
	f := sc.Gen.Frame()
	tr := gen.Trace(sc.Gen, seed)
	l := &loop{kind: kind, name: tr.Name, seed: seed, frame: f, testEnd: f.End}
	if err := tr.Validate(); err != nil {
		return nil, l.fail("generated trace invalid", err)
	}
	if quick && sc.QuickTestSpan > 0 && f.TrainEnd+sc.QuickTestSpan < f.End {
		l.testEnd = f.TrainEnd + sc.QuickTestSpan
	}
	trainQ := tr.Train()
	l.testQ = clipQueries(tr.Test(), l.testEnd)
	if len(trainQ) < 2 || len(l.testQ) == 0 {
		return nil, l.fail("split", fmt.Errorf("degenerate: %d train, %d test queries", len(trainQ), len(l.testQ)))
	}
	l.trainArr = sim.Arrivals(trainQ)
	l.ingested = len(l.trainArr)
	if phaseCut > 0 {
		l.ingested = splitIndex(l.trainArr, phaseCut)
		if l.ingested < 2 || l.ingested >= len(l.trainArr) {
			return nil, l.fail("retrain split", fmt.Errorf("cut at %g leaves %d/%d arrivals", phaseCut, l.ingested, len(l.trainArr)))
		}
	}

	ecfg := engine.DefaultConfig()
	ecfg.Dt = sc.Dt
	ecfg.Pending = f.MeanPending
	ecfg.HistoryWindow = 0
	ecfg.MCSamples = 200
	ecfg.Now = func() float64 { return f.TrainEnd }
	ecfg.Train = sc.trainConfig()
	var err error
	if l.eng, err = engine.New(ecfg); err != nil {
		return nil, l.fail("engine", err)
	}
	if _, err := l.eng.Ingest(l.trainArr[:l.ingested]); err != nil {
		return nil, l.fail("ingest", err)
	}
	if _, err := l.eng.Train(); err != nil {
		return nil, l.fail("train", err)
	}
	l.simCfg = sim.Config{
		Start:        f.TrainEnd,
		End:          l.testEnd,
		PendingDist:  stats.Deterministic{Value: f.MeanPending},
		MeanPending:  f.MeanPending,
		MeanService:  f.MeanService,
		TickInterval: sc.Tick,
		Seed:         seed,
	}
	return l, nil
}

// fail wraps a step's error with the scorecard kind and trace name.
func (l *loop) fail(step string, err error) error {
	return fmt.Errorf("%s %s: %s: %w", l.kind, l.name, step, err)
}

// replay runs one policy over the held-out test span and scores it.
func (l *loop) replay(p sim.Autoscaler) (PolicyScore, error) {
	res, err := sim.Run(l.testQ, p, l.simCfg)
	if err != nil {
		return PolicyScore{}, l.fail(fmt.Sprintf("%v replay", p), err)
	}
	return PolicyScore{
		HitRate:          round6(res.HitRate()),
		RTAvg:            round6(res.RTAvg()),
		RTP95:            round6(res.RTQuantile(0.95)),
		RelativeCost:     round6(res.RelativeCost()),
		InstancesCreated: res.InstancesCreated,
	}, nil
}

// replayBaselines scores the BP and AdapBP baselines every scorecard
// compares against.
func (l *loop) replayBaselines(sc *Scenario) (bp, adap PolicyScore, err error) {
	if bp, err = l.replay(&scaler.BP{B: sc.BPSize}); err != nil {
		return bp, adap, err
	}
	adap, err = l.replay(scaler.NewAdapBP(sc.AdapFactor))
	return bp, adap, err
}

// Run drives one scenario through the closed loop and scores it.
func Run(sc Scenario, baseSeed int64, quick bool) (*Score, error) {
	l, err := setup("scenario", &sc, baseSeed, quick, sc.RetrainAt)
	if err != nil {
		return nil, err
	}
	f, eng := l.frame, l.eng
	actual := timeseries.FromArrivals(sim.Arrivals(l.testQ), f.TrainEnd, l.testEnd, forecastStep)
	score := &Score{
		Name:            l.name,
		TrainQueries:    len(l.trainArr),
		TestQueries:     len(l.testQ),
		TestSpanSeconds: l.testEnd - f.TrainEnd,
		Envelope:        sc.Envelope,
	}

	fc, err := forecastScore(eng, f.TrainEnd, l.testEnd, actual)
	if err != nil {
		return nil, l.fail("forecast", err)
	}
	if l.ingested < len(l.trainArr) {
		// Two-phase loop: fc is the stale forecast of the model trained on
		// the pre-change prefix. Ingest the rest — the engine's generation
		// tracking must mark the model stale and Retrain must refit.
		if _, err := eng.Ingest(l.trainArr[l.ingested:]); err != nil {
			return nil, l.fail("ingest phase 2", err)
		}
		refitted, err := eng.Retrain()
		if err != nil {
			return nil, l.fail("retrain", err)
		}
		stale := fc
		if fc, err = forecastScore(eng, f.TrainEnd, l.testEnd, actual); err != nil {
			return nil, l.fail("fresh forecast", err)
		}
		// A perfect fresh forecast would make the gain infinite; cap it so
		// the scorecard stays valid JSON.
		gain := 1e6
		if fc.WAPE > 0 {
			gain = stale.WAPE / fc.WAPE
		}
		score.Retrain = &RetrainScore{
			StaleWAPE: stale.WAPE,
			FreshWAPE: fc.WAPE,
			Gain:      round6(gain),
			Refitted:  refitted,
		}
	}
	score.Forecast = fc
	score.PeriodSeconds = eng.Status().PeriodSeconds

	// Plan smoke through the engine's own planning path: the scenario
	// must exercise the same code a live control plane serves.
	if _, err := eng.Plan(engine.PlanRequest{
		Variant: "hp", Target: sc.HPTarget, Horizon: 600,
		Now: f.TrainEnd, HasNow: true,
	}); err != nil {
		return nil, l.fail("plan", err)
	}

	// Closed loop: the replayed policy plans on the engine-trained
	// model, not a side-channel refit.
	model := eng.Model()
	if model == nil {
		return nil, l.fail("model", engine.ErrNoModel)
	}
	robust, err := scaler.NewRobustScaler(model.NHPP, scaler.RobustConfig{
		Variant:    scaler.HP,
		Alpha:      1 - sc.HPTarget,
		Tau:        l.simCfg.PendingDist,
		MCSamples:  200,
		PlanWindow: sc.Tick,
		Seed:       l.seed,
	})
	if err != nil {
		return nil, l.fail("policy", err)
	}
	if score.Robust, err = l.replay(robust); err != nil {
		return nil, err
	}
	if score.BP, score.AdapBP, err = l.replayBaselines(&sc); err != nil {
		return nil, err
	}

	score.Checks, score.OK = evaluate(score)
	return score, nil
}

// RunCorpus runs every scenario and assembles the scorecard. Envelope
// misses do not abort the corpus — the report records them and
// EnvelopesOK goes false, which cmd/scorecard turns into a non-zero
// exit.
func RunCorpus(corpus []Scenario, baseSeed int64, quick bool) (*Report, error) {
	rep := &Report{Quick: quick, Seed: baseSeed, EnvelopesOK: true}
	for _, sc := range corpus {
		s, err := Run(sc, baseSeed, quick)
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

// checks accumulates evaluated envelope bounds; a zero bound skips its
// check.
type checks []Check

func (c *checks) atMost(name string, v, bound float64) {
	if bound > 0 {
		*c = append(*c, Check{Name: name, Value: round6(v), Bound: bound, OK: v <= bound})
	}
}

func (c *checks) atLeast(name string, v, bound float64) {
	if bound > 0 {
		*c = append(*c, Check{Name: name, Value: round6(v), Bound: bound, OK: v >= bound})
	}
}

// verdict returns the evaluated checks and whether all of them held.
func (c checks) verdict() ([]Check, bool) {
	for _, ch := range c {
		if !ch.OK {
			return c, false
		}
	}
	return c, true
}

// evaluate applies the envelope to the scores.
func evaluate(s *Score) ([]Check, bool) {
	e := s.Envelope
	var c checks
	if s.Forecast != nil {
		c.atMost("forecast_wape", s.Forecast.WAPE, e.MaxWAPE)
		c.atMost("forecast_pinball90", s.Forecast.Pinball90, e.MaxPinball90)
	}
	c.atLeast("detected_period_seconds", s.PeriodSeconds, e.MinPeriodSeconds)
	c.atMost("detected_period_seconds", s.PeriodSeconds, e.MaxPeriodSeconds)
	c.atLeast("robust_hit_rate", s.Robust.HitRate, e.MinHitRate)
	c.atMost("robust_relative_cost", s.Robust.RelativeCost, e.MaxRelativeCost)
	if e.MinHitVsAdapBP != 0 {
		d := s.Robust.HitRate - s.AdapBP.HitRate
		c = append(c, Check{Name: "hit_vs_adapbp", Value: round6(d), Bound: e.MinHitVsAdapBP, OK: d >= e.MinHitVsAdapBP})
	}
	if e.MaxCostVsAdapBP > 0 && s.AdapBP.RelativeCost > 0 {
		r := s.Robust.RelativeCost / s.AdapBP.RelativeCost
		c = append(c, Check{Name: "cost_vs_adapbp", Value: round6(r), Bound: e.MaxCostVsAdapBP, OK: r <= e.MaxCostVsAdapBP})
	}
	if e.MinRetrainGain > 0 {
		v, refitted := 0.0, false
		if s.Retrain != nil {
			v, refitted = s.Retrain.Gain, s.Retrain.Refitted
		}
		c = append(c, Check{Name: "retrain_gain", Value: round6(v), Bound: e.MinRetrainGain, OK: refitted && v >= e.MinRetrainGain})
	}
	return c.verdict()
}

// forecastScore reads the engine's forecast over [from, to) and scores
// it against the actual binned test counts.
func forecastScore(eng *engine.Engine, from, to float64, actual *timeseries.Series) (*ForecastScore, error) {
	pts, err := eng.Forecast(from, to, forecastStep)
	if err != nil {
		return nil, err
	}
	n := actual.Len()
	if len(pts) < n {
		n = len(pts)
	}
	firstHour := int(math.Ceil(gen.Hour / forecastStep))
	var absErr, absErr1h, act, act1h, pin50, pin90 float64
	for i := 0; i < n; i++ {
		pred := pts[i].QPS * forecastStep
		a := actual.Values[i]
		diff := math.Abs(pred - a)
		absErr += diff
		act += a
		if i < firstHour {
			absErr1h += diff
			act1h += a
		}
		// The count forecast at quantile q, bin counts being Poisson
		// under the fitted NHPP.
		counts := stats.Poisson{Lambda: pred}
		pin50 += pinball(a, float64(counts.Quantile(0.5)), 0.5)
		pin90 += pinball(a, float64(counts.Quantile(0.9)), 0.9)
	}
	fc := &ForecastScore{Bins: n}
	if act > 0 {
		fc.WAPE = round6(absErr / act)
		meanCount := act / float64(n)
		fc.Pinball50 = round6(pin50 / float64(n) / meanCount)
		fc.Pinball90 = round6(pin90 / float64(n) / meanCount)
	}
	if act1h > 0 {
		fc.WAPEFirstHour = round6(absErr1h / act1h)
	}
	return fc, nil
}

// pinball is the quantile (pinball) loss ρ_q(actual − predicted).
func pinball(actual, predicted, q float64) float64 {
	u := actual - predicted
	if u >= 0 {
		return q * u
	}
	return (q - 1) * u
}

// splitIndex returns the first index of sorted arr at or after t.
func splitIndex(arr []float64, t float64) int {
	lo, hi := 0, len(arr)
	for lo < hi {
		mid := (lo + hi) / 2
		if arr[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clipQueries keeps queries arriving before end.
func clipQueries(qs []sim.Query, end float64) []sim.Query {
	out := qs
	for len(out) > 0 && out[len(out)-1].Arrival >= end {
		out = out[:len(out)-1]
	}
	return out
}

// round6 rounds to 6 decimals so scorecards stay tidy and reruns stay
// byte-identical.
func round6(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Round(v*1e6) / 1e6
}
