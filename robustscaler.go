// Package robustscaler is a QoS-aware proactive autoscaler for
// scaling-per-query workloads (container registries, CI/CD runners,
// FaaS-style services where every query gets its own instance). It
// reproduces the system described in "RobustScaler: QoS-Aware Autoscaling
// for Complex Workloads" (ICDE 2022):
//
//   - query arrivals are modeled as a non-homogeneous Poisson process
//     whose log-intensity is trained with a periodicity-regularized
//     likelihood via ADMM (robust to noise, outliers and missing data);
//   - the fitted intensity is extrapolated to forecast upcoming traffic;
//   - instance creation times are chosen by stochastically constrained
//     optimization, guaranteeing a target hitting probability, expected
//     response time, or cost budget per query.
//
// # Quick start (library)
//
//	series := robustscaler.CountsFromArrivals(arrivals, 0, end, 60)
//	model, err := robustscaler.Train(series, robustscaler.DefaultTrainConfig())
//	policy, err := robustscaler.NewHPPolicy(model, 0.9, robustscaler.FixedPending(13), 1, 0)
//	result, err := robustscaler.Replay(queries, policy, robustscaler.ReplayConfig{
//	    Start: trainEnd, End: end, Pending: robustscaler.FixedPending(13), Tick: 1,
//	})
//	fmt.Println(result.HitRate(), result.RelativeCost())
//
// # Quick start (serving many workloads)
//
// The scalerd daemon (cmd/scalerd) serves any number of independent
// workloads from one process — each workload gets its own arrival
// history, model and plans, refreshed by a background retraining pool:
//
//	scalerd -listen :8080 -retrain-every 1800 -retrain-workers 4
//
//	curl -XPOST :8080/v1/workloads/registry-eu/arrivals -d '{"timestamps":[...]}'
//	curl -XPOST :8080/v1/workloads/registry-eu/train
//	curl ':8080/v1/workloads/registry-eu/plan?variant=hp&target=0.9&horizon=600'
//	curl ':8080/v1/workloads/ci-runners/forecast?from=0&to=3600'
//	curl :8080/v1/workloads
//
// Embedders can skip HTTP and drive internal/engine directly: an
// engine.Registry maps workload IDs to per-workload Engines (ingest →
// train → plan) with sharded locking and a RetrainAll worker-pool sweep.
//
// This package is a re-export: it defines no training or policy logic. The
// training core lives in internal/train, the policies (RobustScaler
// variants, baselines, the retraining wrapper) in internal/scaler and the
// replay simulator in internal/sim; the names below are type aliases and
// thin constructors over them, kept only where a downstream user needs
// them. Nothing under internal/ imports this package.
package robustscaler

import (
	"fmt"

	"robustscaler/internal/nhpp"
	"robustscaler/internal/scaler"
	"robustscaler/internal/sim"
	"robustscaler/internal/stats"
	"robustscaler/internal/timeseries"
	"robustscaler/internal/train"
)

// Query is one unit of work: arrival epoch and service duration, seconds.
type Query = sim.Query

// Result carries the QoS and cost metrics of a replay; see the methods on
// sim.Result (HitRate, RTAvg, RTQuantile, RelativeCost, ...).
type Result = sim.Result

// Policy is the autoscaling policy interface accepted by Replay.
type Policy = sim.Autoscaler

// PendingDist describes instance startup (pending) times.
type PendingDist = stats.Dist

// FixedPending returns a deterministic pending-time distribution — the
// fixed pod startup time of the paper's experiments.
func FixedPending(seconds float64) PendingDist {
	return stats.Deterministic{Value: seconds}
}

// ExpPending returns an exponentially distributed pending time with the
// given mean, for environments with variable cold-start latency.
func ExpPending(mean float64) PendingDist {
	return stats.Exponential{Mean: mean}
}

// CountsFromArrivals bins raw arrival timestamps into a count series with
// bin width dt covering [start, end) — the input format of Train.
func CountsFromArrivals(arrivals []float64, start, end, dt float64) *timeseries.Series {
	return timeseries.FromArrivals(arrivals, start, end, dt)
}

// TrainConfig controls model training.
type TrainConfig = train.Config

// DefaultTrainConfig returns the configuration used across the paper
// experiments: outlier clipping at 6 robust sigmas, periodicity detection
// with hour-scale aggregation, and the default ADMM settings.
func DefaultTrainConfig() TrainConfig { return train.DefaultConfig() }

// Model is a trained arrival model: an NHPP whose intensity extrapolates
// periodically beyond the training window. It is the input to the policy
// constructors.
type Model = train.Model

// Train fits the NHPP arrival model to a count series, running the full
// pipeline of the paper's Fig. 2: periodicity detection → regularized
// likelihood → ADMM.
func Train(counts *timeseries.Series, cfg TrainConfig) (*Model, error) {
	return train.Fit(counts, cfg)
}

// TrainWarm is Train seeded from a previous model's ADMM solution
// (Model.NHPP.WarmState()); incompatible or nil warm states run cold.
func TrainWarm(counts *timeseries.Series, cfg TrainConfig, warm *nhpp.WarmState) (*Model, error) {
	return train.FitWarm(counts, cfg, warm)
}

// FitWindow fits a model on the trailing window seconds of the series
// (the whole series when window ≤ 0).
func FitWindow(series *timeseries.Series, window float64, cfg TrainConfig) (*Model, error) {
	return train.FitWindow(series, window, cfg)
}

// FitWindowWarm is FitWindow seeded from a previous model's ADMM
// solution (see TrainWarm).
func FitWindowWarm(series *timeseries.Series, window float64, cfg TrainConfig, warm *nhpp.WarmState) (*Model, error) {
	return train.FitWindowWarm(series, window, cfg, warm)
}

// RetrainConfig controls online model refreshing during a replay: the
// refit period, the trailing training window and the training
// configuration.
type RetrainConfig = scaler.RetrainConfig

// PolicyBuilder constructs the inner autoscaling policy from a model —
// typically a closure over NewHPPolicy / NewRTPolicy / NewCostPolicy.
type PolicyBuilder = scaler.PolicyBuilder

// NewRetrainingPolicy wraps build's policy with periodic retraining. seed
// is the count series the first model is trained on; arrivals observed
// during the replay extend a private copy of it.
func NewRetrainingPolicy(seed *timeseries.Series, cfg RetrainConfig, build PolicyBuilder) (Policy, error) {
	return scaler.NewRetraining(seed, cfg, build)
}

// NewHPPolicy builds a RobustScaler-HP policy targeting hitting
// probability target ∈ (0,1), with the given pending-time distribution,
// planning window Δ (seconds) and RNG seed.
func NewHPPolicy(m *Model, target float64, pending PendingDist, delta float64, seed int64) (Policy, error) {
	return newRobustPolicy(m, scaler.RobustConfig{
		Variant:    scaler.HP,
		Alpha:      1 - target,
		Tau:        pending,
		PlanWindow: delta,
		Seed:       seed,
	})
}

// NewRTPolicy builds a RobustScaler-RT policy: waitBudget is the allowed
// expected waiting time d − µs (seconds, net of processing).
func NewRTPolicy(m *Model, waitBudget float64, pending PendingDist, delta float64, seed int64) (Policy, error) {
	return newRobustPolicy(m, scaler.RobustConfig{
		Variant:    scaler.RT,
		RTTarget:   waitBudget,
		Tau:        pending,
		PlanWindow: delta,
		Seed:       seed,
	})
}

// NewCostPolicy builds a RobustScaler-cost policy: idleBudget is the
// allowed expected idle time per instance B − µτ − µs (seconds).
func NewCostPolicy(m *Model, idleBudget float64, pending PendingDist, delta float64, seed int64) (Policy, error) {
	return newRobustPolicy(m, scaler.RobustConfig{
		Variant:    scaler.Cost,
		CostBudget: idleBudget,
		Tau:        pending,
		PlanWindow: delta,
		Seed:       seed,
	})
}

// newRobustPolicy builds the policy over the model's fitted intensity.
func newRobustPolicy(m *Model, cfg scaler.RobustConfig) (Policy, error) {
	if m == nil {
		return nil, fmt.Errorf("robustscaler: nil model")
	}
	return scaler.NewRobustScaler(m.NHPP, cfg)
}

// NewBackupPool returns the Backup Pool baseline with pool size b
// (b = 0 is pure reactive scaling).
func NewBackupPool(b int) Policy { return &scaler.BP{B: b} }

// NewAdaptiveBackupPool returns the Adaptive Backup Pool baseline with
// the given QPS multiplier.
func NewAdaptiveBackupPool(factor float64) Policy { return scaler.NewAdapBP(factor) }

// ReplayConfig configures a trace replay.
type ReplayConfig struct {
	// Start and End bound the replayed time range, seconds.
	Start, End float64
	// Pending draws instance startup times.
	Pending PendingDist
	// MeanPending µτ is used for the reactive-baseline cost; when 0 it is
	// taken from Pending's median.
	MeanPending float64
	// Tick is the planning interval Δ in seconds (0 disables ticks).
	Tick float64
	// Seed drives pending-time draws.
	Seed int64
	// MeasureDecisionLatency enables the real-environment model: planner
	// wall-clock time delays when creations take effect.
	MeasureDecisionLatency bool
	// ActuationLatency adds a fixed delay (seconds) to creations when
	// MeasureDecisionLatency is on.
	ActuationLatency float64
}

// Replay runs the policy against the queries (sorted by arrival) and
// returns the QoS/cost metrics.
func Replay(queries []Query, policy Policy, cfg ReplayConfig) (*Result, error) {
	if cfg.Pending == nil {
		return nil, fmt.Errorf("robustscaler: ReplayConfig.Pending is required")
	}
	mp := cfg.MeanPending
	if mp == 0 {
		mp = cfg.Pending.Quantile(0.5)
	}
	return sim.Run(queries, policy, sim.Config{
		Start:                  cfg.Start,
		End:                    cfg.End,
		PendingDist:            cfg.Pending,
		MeanPending:            mp,
		TickInterval:           cfg.Tick,
		Seed:                   cfg.Seed,
		MeasureDecisionLatency: cfg.MeasureDecisionLatency,
		ActuationLatency:       cfg.ActuationLatency,
	})
}
