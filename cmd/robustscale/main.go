// Command robustscale trains the NHPP arrival model on a trace and emits
// the upcoming proactive scaling plan: a list of absolute instance
// creation times computed by the selected stochastically constrained
// formulation. It runs the serving engine in-process — ingest the
// training arrivals, train, plan at the train/test boundary — so it
// prints exactly what scalerd would serve for the same history.
//
// Usage:
//
//	robustscale -synthetic google -variant hp -target 0.9 -horizon 600
//	robustscale -trace workload.csv -variant rt -target 2 -pending 13
package main

import (
	"flag"
	"fmt"
	"os"

	"robustscaler/internal/engine"
	"robustscaler/internal/sim"
	"robustscaler/internal/trace"
)

func main() {
	var (
		synthetic = flag.String("synthetic", "google", "built-in trace: crs, google, alibaba")
		traceFile = flag.String("trace", "", "CSV trace file (overrides -synthetic)")
		trainFrac = flag.Float64("train-frac", 0.75, "training fraction for CSV traces")
		variant   = flag.String("variant", "hp", "formulation: hp, rt, cost")
		target    = flag.Float64("target", 0.9, "target hit prob / wait budget (s) / idle budget (s)")
		pending   = flag.Float64("pending", 0, "pending time τ seconds (0 = trace default)")
		horizon   = flag.Float64("horizon", 600, "planning horizon in seconds")
		mcR       = flag.Int("mc", 1000, "accepted for compatibility and ignored: rt/cost plans are solved exactly")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	tr, err := loadTrace(*traceFile, *synthetic, *trainFrac, *seed)
	if err != nil {
		fatal(err)
	}
	tau := tr.MeanPending
	if *pending > 0 {
		tau = *pending
	}
	if tau <= 0 {
		tau = 13
	}

	now := tr.TrainEnd
	cfg := engine.DefaultConfig()
	cfg.Pending = tau
	cfg.HistoryWindow = 0
	cfg.MCSamples = *mcR
	cfg.Now = func() float64 { return now }
	cfg.Train.Periodicity.AggregateWindow = 10
	cfg.Train.Periodicity.MinPeriod = 3
	eng, err := engine.New(cfg)
	if err != nil {
		fatal(err)
	}
	if _, err := eng.Ingest(sim.Arrivals(tr.Train())); err != nil {
		fatal(err)
	}
	info, err := eng.Train()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained on %d bins; detected period: %.0f s; ADMM iterations: %d (converged=%v)\n",
		info.Bins, info.PeriodSeconds, info.Iterations, info.Converged)
	fmt.Printf("current time t0 = %.0f s; forecast intensity λ(t0) = %.4g qps\n", now, eng.Status().RateNow)

	plan, err := eng.Plan(engine.PlanRequest{Variant: *variant, Target: *target, Horizon: *horizon, Now: now, HasNow: true})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("κ threshold (eq. 8) at local intensity: %d arrivals\n", plan.Kappa)
	fmt.Printf("\nplan (variant=%s, target=%g, horizon=%.0f s):\n", plan.Variant, plan.Target, *horizon)
	fmt.Println("query#  create_at_s  lead_s")
	for _, p := range plan.Plan {
		fmt.Printf("%6d  %11.1f  %6.1f\n", p.QueryIndex, p.CreateAt, p.LeadSecs)
	}
}

func loadTrace(file, synthetic string, trainFrac float64, seed int64) (*trace.Trace, error) {
	if file != "" {
		fh, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		return trace.ReadCSV(fh, file, trainFrac)
	}
	switch synthetic {
	case "crs":
		return trace.SyntheticCRS(seed), nil
	case "google":
		return trace.SyntheticGoogle(seed), nil
	case "alibaba":
		return trace.SyntheticAlibaba(seed), nil
	default:
		return nil, fmt.Errorf("unknown synthetic trace %q", synthetic)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
