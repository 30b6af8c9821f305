package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"robustscaler/internal/engine"
	"robustscaler/internal/server"
)

// The correctness gates. Each workload checks, inside its one run:
//
//   - every explicit-now plan and forecast body is byte-identical to
//     what an in-process reference engine fed the same inputs renders
//     (query_steady, refit_qos);
//   - after kill -9 every workload retains exactly the events the
//     harness was acknowledged, trimmed to the history window
//     (ingest_durable: lost_acked_events must be 0);
//   - scalerd's own counters agree with the harness's tallies.
//
// A violation is counted as a failed op, so the run is not correct.

// referenceEngine is an engine configured exactly as a scalerd started
// with the given -dt and -history creates its workloads. It takes the
// same calls the HTTP surface maps to, so its rendered bodies are the
// bytes scalerd must send.
type referenceEngine struct {
	e *engine.Engine
}

// engineConfig is scalerd's default engine configuration with -dt and
// -history set.
func engineConfig(dt, history float64) *server.Config {
	cfg := server.DefaultConfig()
	cfg.Dt = dt
	cfg.HistoryWindow = history
	return &cfg
}

func newReferenceEngine(dt, history float64) (*referenceEngine, error) {
	e, err := engine.New(*engineConfig(dt, history))
	if err != nil {
		return nil, err
	}
	return &referenceEngine{e: e}, nil
}

func (r *referenceEngine) ingest(ts []float64) error {
	_, err := r.e.IngestSortedChunks([][]float64{ts})
	return err
}

func (r *referenceEngine) train() error {
	_, err := r.e.Train()
	return err
}

// planHP renders GET plan?variant=hp&target=&horizon=&now= the way the
// handler does: the engine's plan through json.Encoder.
func (r *referenceEngine) planHP(target, horizon, now float64) ([]byte, error) {
	p, err := r.e.Plan(engine.PlanRequest{Variant: "hp", Target: target, Horizon: horizon, Now: now, HasNow: true})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(p); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (r *referenceEngine) forecast(from, to, step float64) ([]byte, error) {
	return r.e.ForecastJSON(from, to, step)
}

// sameBytes compares a response with its reference and describes the
// first difference.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: response differs from the reference engine at byte %d (%d vs %d bytes)", what, i, len(got), len(want))
}

func planPath(id, variant string, target, horizon float64) string {
	return "/v1/workloads/" + id + "/plan?variant=" + variant + "&target=" + ftoa(target) + "&horizon=" + ftoa(horizon)
}

func forecastPath(id string, from, to, step float64) string {
	return "/v1/workloads/" + id + "/forecast?from=" + ftoa(from) + "&to=" + ftoa(to) + "&step=" + ftoa(step)
}
