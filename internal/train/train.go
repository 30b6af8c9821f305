// Package train is the model-training core, the pipeline of the paper's
// Fig. 2: periodicity detection → seasonal-aware robust clipping →
// periodicity-regularized likelihood fitted by ADMM. It sits below every
// consumer of a fitted model — the serving engine, the replay policies,
// the scenario and experiment harnesses — and imports only the numeric
// packages (nhpp, periodicity, timeseries). The root package re-exports
// it for library users.
package train

import (
	"fmt"

	"robustscaler/internal/nhpp"
	"robustscaler/internal/periodicity"
	"robustscaler/internal/timeseries"
)

// Config controls model training.
type Config struct {
	// WinsorK clips count outliers beyond K robust standard deviations
	// before fitting; ≤0 disables. This is the robust-decomposition guard
	// in front of the likelihood.
	WinsorK float64
	// DetectPeriodicity runs the periodicity detector and enables the DL
	// regularization term when a cycle is found.
	DetectPeriodicity bool
	// Periodicity tunes the detector (used when DetectPeriodicity).
	Periodicity periodicity.Options
	// Fit tunes the ADMM trainer. Fit.Period is overwritten by detection
	// when DetectPeriodicity is on.
	Fit nhpp.FitConfig
}

// DefaultConfig returns the configuration used across the paper
// experiments: outlier clipping at 6 robust sigmas, periodicity detection
// with hour-scale aggregation, and the default ADMM settings.
func DefaultConfig() Config {
	return Config{
		WinsorK:           6,
		DetectPeriodicity: true,
		Periodicity:       periodicity.DefaultOptions(),
		Fit:               nhpp.DefaultFitConfig(),
	}
}

// Model is a trained arrival model: an NHPP whose intensity extrapolates
// periodically beyond the training window. It implements the forecast
// role of the pipeline and is the input to the policy constructors.
type Model struct {
	// NHPP is the fitted process; it satisfies the intensity interface
	// used by the decision solvers.
	NHPP *nhpp.Model
	// PeriodBins is the detected period in training bins (0 = none).
	PeriodBins int
	// PeriodSeconds is the detected period in seconds (0 = none).
	PeriodSeconds float64
	// FitStats reports ADMM convergence diagnostics.
	FitStats nhpp.FitStats
}

// Rate returns the modeled (or extrapolated) intensity λ(t), queries/s.
func (m *Model) Rate(t float64) float64 { return m.NHPP.Rate(t) }

// Fit fits the NHPP arrival model to a count series, running the full
// pipeline of the paper's Fig. 2: periodicity detection → regularized
// likelihood → ADMM.
func Fit(counts *timeseries.Series, cfg Config) (*Model, error) {
	return FitWarm(counts, cfg, nil)
}

// FitWarm is Fit with an optional warm start: warm is a previous model's
// ADMM solution (Model.NHPP.WarmState()), used as the starting iterate
// when it is compatible with this fit's grid, detected period and
// penalties. Incompatible or nil warm states silently run cold;
// Model.FitStats.WarmStarted reports which path ran. Training is
// strictly convex, so warm and cold starts agree up to the solver
// tolerance — warm starting changes the cost of a refit, not its result.
func FitWarm(counts *timeseries.Series, cfg Config, warm *nhpp.WarmState) (*Model, error) {
	if counts == nil || counts.Len() == 0 {
		return nil, fmt.Errorf("train: empty count series")
	}
	// Detect periodicity first (the detector clips outliers internally),
	// then apply the seasonal-aware robust clipping: one-off anomalies are
	// removed relative to the same phase of other cycles, while recurring
	// spikes — legitimate load the autoscaler must provision for — are
	// preserved.
	fit := cfg.Fit
	if cfg.DetectPeriodicity {
		if res, ok := periodicity.Detect(counts, cfg.Periodicity); ok {
			fit.Period = res.Period
		} else {
			fit.Period = 0
		}
	}
	work := counts.Clone()
	if cfg.WinsorK > 0 {
		if fit.Period > 0 {
			work.WinsorizeMADSeasonal(fit.Period, cfg.WinsorK)
		} else {
			work.WinsorizeMAD(cfg.WinsorK)
		}
	}
	m, st, err := nhpp.FitWarm(work.Start, work.Dt, work.Values, fit, warm)
	if err != nil {
		return nil, fmt.Errorf("train: fit failed: %w", err)
	}
	out := &Model{NHPP: m, PeriodBins: m.Period, FitStats: st}
	if m.Period > 0 {
		out.PeriodSeconds = float64(m.Period) * work.Dt
	}
	return out, nil
}

// FitWindow fits a model on the trailing window seconds of the series
// (the whole series when window ≤ 0) — the refresh step shared by the
// retraining replay policy and the serving engine's background
// retrainer. Callers keep their previous model when it returns an error.
func FitWindow(series *timeseries.Series, window float64, cfg Config) (*Model, error) {
	return FitWindowWarm(series, window, cfg, nil)
}

// FitWindowWarm is FitWindow seeded from a previous model's ADMM
// solution (see FitWarm). The serving engine passes the outgoing
// model's nhpp warm state here so steady-state refits — the same window
// slid forward a few bins — converge in a fraction of the cold
// iteration count.
func FitWindowWarm(series *timeseries.Series, window float64, cfg Config, warm *nhpp.WarmState) (*Model, error) {
	train := series
	if window > 0 {
		bins := int(window / series.Dt)
		if bins < 1 {
			bins = 1
		}
		if bins < train.Len() {
			train = train.Slice(train.Len()-bins, train.Len())
		}
	}
	return FitWarm(train, cfg, warm)
}
