// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sec. VII) on the synthetic trace stand-ins. Each
// ExpXxx driver returns printable tables with the same rows/series the
// paper reports; cmd/experiments prints them and bench_test.go wraps them
// in testing.B benchmarks. Options.Quick shrinks sweeps and horizons so a
// full pass stays fast; the full mode reproduces the paper-scale setup.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"robustscaler/internal/nhpp"
	"robustscaler/internal/scaler"
	"robustscaler/internal/sim"
	"robustscaler/internal/stats"
	"robustscaler/internal/trace"
	"robustscaler/internal/train"
)

// robustIntensity is the forecast interface consumed by the RobustScaler
// policies (either a trained model or a closed-form intensity).
type robustIntensity = nhpp.Intensity

// Options controls an experiment run.
type Options struct {
	// Seed drives every stochastic component, making runs reproducible.
	Seed int64
	// Quick shrinks replay horizons, sweep grids and Monte Carlo sizes so
	// the whole suite finishes in minutes; full mode matches the paper's
	// scale.
	Quick bool
}

// Table is one printable result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// Runner caches traces and trained models across experiments.
type Runner struct {
	opt Options

	mu     sync.Mutex
	traces map[string]*trace.Trace
	models map[string]*train.Model
}

// NewRunner builds a runner.
func NewRunner(opt Options) *Runner {
	return &Runner{
		opt:    opt,
		traces: map[string]*trace.Trace{},
		models: map[string]*train.Model{},
	}
}

// Trace returns (and caches) the named trace: crs, google, or alibaba.
func (r *Runner) Trace(name string) *trace.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.traces[name]; ok {
		return t
	}
	var t *trace.Trace
	switch name {
	case "crs":
		t = trace.SyntheticCRS(r.opt.Seed + 101)
	case "google":
		t = trace.SyntheticGoogle(r.opt.Seed + 102)
	case "alibaba":
		t = trace.SyntheticAlibaba(r.opt.Seed + 103)
	default:
		panic(fmt.Sprintf("experiments: unknown trace %q", name))
	}
	r.traces[name] = t
	return t
}

// testEnd bounds the replay window; Quick mode truncates the test span.
func (r *Runner) testEnd(t *trace.Trace) float64 {
	if !r.opt.Quick {
		return t.End
	}
	span := t.End - t.TrainEnd
	switch t.Name {
	case "CRS":
		span = 86400 // one test day instead of a week
	case "Google":
		span = 2 * 3600
	case "Alibaba":
		span = 2 * 3600
	}
	if t.TrainEnd+span > t.End {
		return t.End
	}
	return t.TrainEnd + span
}

// tick returns the planning interval Δ.
func (r *Runner) tick() float64 {
	if r.opt.Quick {
		return 5
	}
	return 1
}

// mcSamples returns the Monte Carlo size R for the RT/cost solvers.
func (r *Runner) mcSamples() int {
	if r.opt.Quick {
		return 100
	}
	return 1000
}

// trainConfig returns the model-training configuration for a trace.
func (r *Runner) trainConfig(t *trace.Trace) train.Config {
	cfg := train.DefaultConfig()
	// Aggregate minute bins before periodicity detection: CRS-scale
	// traffic is too sparse per minute for the spectral test (Sec. IV).
	switch t.Name {
	case "CRS":
		cfg.Periodicity.AggregateWindow = 60 // hours
		cfg.Periodicity.MinPeriod = 12
	case "Google", "Alibaba":
		cfg.Periodicity.AggregateWindow = 10
		cfg.Periodicity.MinPeriod = 3
	}
	return cfg
}

// Model returns (and caches) the NHPP model trained on the trace's
// training portion with Δt = 60 s, the paper's resolution.
func (r *Runner) Model(name string) *train.Model {
	r.mu.Lock()
	if m, ok := r.models[name]; ok {
		r.mu.Unlock()
		return m
	}
	r.mu.Unlock()
	t := r.Trace(name)
	m := r.trainOn(t)
	r.mu.Lock()
	r.models[name] = m
	r.mu.Unlock()
	return m
}

// trainOn trains a fresh model on an arbitrary (possibly modified) trace.
func (r *Runner) trainOn(t *trace.Trace) *train.Model {
	series := t.TrainCountSeries(60)
	m, err := train.Fit(series, r.trainConfig(t))
	if err != nil {
		panic(fmt.Sprintf("experiments: training on %s: %v", t.Name, err))
	}
	return m
}

// replay runs a policy over the trace's test portion.
func (r *Runner) replay(t *trace.Trace, policy sim.Autoscaler, seed int64) *sim.Result {
	return r.replayLatency(t, policy, seed, false, 0)
}

func (r *Runner) replayLatency(t *trace.Trace, policy sim.Autoscaler, seed int64, measure bool, actuation float64) *sim.Result {
	end := r.testEnd(t)
	res, err := sim.Run(t.Test(), policy, sim.Config{
		Start:                  t.TrainEnd,
		End:                    end,
		PendingDist:            stats.Deterministic{Value: t.MeanPending},
		MeanPending:            t.MeanPending,
		MeanService:            t.MeanService,
		TickInterval:           r.tick(),
		Seed:                   seed,
		MeasureDecisionLatency: measure,
		ActuationLatency:       actuation,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: replay %s: %v", t.Name, err))
	}
	return res
}

// robustPolicy builds a RobustScaler variant for the trace's model.
func (r *Runner) robustPolicy(name string, m *train.Model, v scaler.Variant, value float64, seed int64) sim.Autoscaler {
	t := r.Trace(name)
	cfg := scaler.RobustConfig{
		Variant:    v,
		Tau:        stats.Deterministic{Value: t.MeanPending},
		MCSamples:  r.mcSamples(),
		PlanWindow: r.tick(),
		Seed:       seed,
	}
	switch v {
	case scaler.HP:
		cfg.Alpha = 1 - value
	case scaler.RT:
		cfg.RTTarget = value
	case scaler.Cost:
		cfg.CostBudget = value
	}
	p, err := scaler.NewRobustScaler(m.NHPP, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: policy: %v", err))
	}
	return p
}

// mustRobust builds a RobustScaler policy or panics (experiment configs
// are static, so a failure is a bug).
func (r *Runner) mustRobust(cfg scaler.RobustConfig, in nhpp.Intensity) sim.Autoscaler {
	p, err := scaler.NewRobustScaler(in, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: building policy: %v", err))
	}
	return p
}

// sweeps returns the per-trace parameter grids used by the Pareto
// experiments (Fig. 4/5): BP pool sizes, AdapBP factors, and the target
// grids for the three RobustScaler variants.
type sweepGrids struct {
	BP        []int
	AdapBP    []float64
	HPTargets []float64
	RTBudgets []float64
	CostBudgs []float64
}

func (r *Runner) grids(name string) sweepGrids {
	var g sweepGrids
	switch name {
	case "crs":
		g = sweepGrids{
			BP:        []int{0, 1, 2, 3, 4, 6, 8},
			AdapBP:    []float64{0, 60, 120, 240, 480, 960},
			HPTargets: []float64{0.3, 0.5, 0.7, 0.85, 0.95},
			RTBudgets: []float64{25, 15, 8, 4, 1.5},
			CostBudgs: []float64{10, 30, 60, 120, 240},
		}
	case "google":
		g = sweepGrids{
			BP:        []int{0, 1, 2, 5, 10, 20, 40},
			AdapBP:    []float64{0, 10, 25, 50, 100, 200},
			HPTargets: []float64{0.3, 0.5, 0.7, 0.85, 0.95},
			RTBudgets: []float64{11, 8, 5, 2.5, 1},
			CostBudgs: []float64{0.5, 2, 5, 12, 30},
		}
	case "alibaba":
		g = sweepGrids{
			BP:        []int{0, 10, 30, 75, 150, 300, 450},
			AdapBP:    []float64{0, 15, 30, 60, 120, 240},
			HPTargets: []float64{0.3, 0.5, 0.7, 0.85, 0.95},
			RTBudgets: []float64{11, 8, 5, 2.5, 1},
			CostBudgs: []float64{0.5, 2, 5, 12, 30},
		}
	default:
		panic(fmt.Sprintf("experiments: unknown trace %q", name))
	}
	if r.opt.Quick {
		g.BP = thinInts(g.BP)
		g.AdapBP = thinFloats(g.AdapBP)
		g.HPTargets = thinFloats(g.HPTargets)
		g.RTBudgets = thinFloats(g.RTBudgets)
		g.CostBudgs = thinFloats(g.CostBudgs)
	}
	return g
}

// thinInts keeps every other grid point (plus the last).
func thinInts(xs []int) []int {
	var out []int
	for i := 0; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	if len(xs) > 0 && (len(xs)-1)%2 != 0 {
		out = append(out, xs[len(xs)-1])
	}
	return out
}

func thinFloats(xs []float64) []float64 {
	var out []float64
	for i := 0; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	if len(xs) > 0 && (len(xs)-1)%2 != 0 {
		out = append(out, xs[len(xs)-1])
	}
	return out
}
