package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json: the names, units, directions and bounds
// this program's output is checked against.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runAA is the A/A mode: every workload twice, back to back, on the same
// build and seed. Two runs of identical code must agree within each
// end-to-end metric's own bound — a metric that cannot is a flapping
// gate and has to get a longer window or leave the gated list — and the
// values that are pure functions of the seed must match exactly.
func runAA(root, bin string, seed int64, seconds float64, out io.Writer) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	outside := 0
	for _, w := range spec.Workloads {
		var runs [2]*outcome
		for i := range runs {
			fmt.Fprintf(out, "-- A/A %s, run %d\n", w.Name, i+1)
			if runs[i], err = runOne(root, bin, w.Name, seed, seconds, 0, out); err != nil {
				return err
			}
			if !runs[i].Correct {
				return fmt.Errorf("A/A %s run %d is not correct (%d of %d ops failed)", w.Name, i+1, runs[i].Failed, runs[i].Attempted)
			}
		}
		fmt.Fprintf(out, "== A/A %s\n", w.Name)
		for _, m := range spec.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff := (b - a) / a
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict = "OUTSIDE ITS BOUND"
				outside++
			}
			fmt.Fprintf(out, "  %-22s %14.4f %14.4f %-6s %+7.2f%% of bound ±%.0f%%  %s\n",
				m.Name, a, b, m.Unit, 100*diff, 100*m.Bound, verdict)
		}
		names := make([]string, 0, len(runs[0].exact))
		for name := range runs[0].exact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := runs[0].exact[name], runs[1].exact[name]
			verdict := "identical"
			if a != b {
				verdict = "DIFFERS (must repeat exactly)"
				outside++
			}
			fmt.Fprintf(out, "  %-22s %14.10g %14.10g        %s\n", name, a, b, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("A/A: %d comparisons outside their bound", outside)
	}
	return nil
}
