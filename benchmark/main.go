// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/scalerd, runs it as a subprocess, drives it over loopback TCP from
// two keep-alive connections, checks its outputs and prints every metric
// BENCHMARK.json declares. README.md beside this file explains the
// workloads, the metrics and how they interact.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object; everything above
// it is the human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(*runConfig) (*result, *recorder, error){
	"ingest_durable": runIngestDurable,
	"query_steady":   runQuerySteady,
	"refit_qos":      runRefitQoS,
	"mixed_live":     runMixedLive,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// exact is result.exact: not part of the printed line.
	exact map[string]float64
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: one of "+fmt.Sprint(workloadNames()))
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 15, "length of the measured window, seconds")
		trace    = flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer pass")
		quick    = flag.Bool("quick", false, "smoke run: 1 s windows")
		aa       = flag.Bool("aa", false, "run every workload twice on the same build and compare against the bounds")
	)
	flag.Parse()
	if *quick {
		*seconds = 1
	}
	if err := run(*workload, *seed, *seconds, *trace, *aa, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, aa bool, stdout io.Writer) error {
	if seconds <= 0 || seconds > 60 {
		return fmt.Errorf("--seconds %g out of range (0, 60]", seconds)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDirName), 0o755); err != nil {
		return err
	}
	bin, err := buildScalerd(root)
	if err != nil {
		return err
	}
	if aa {
		return runAA(root, bin, seed, seconds, stdout)
	}
	out, err := runOne(root, bin, workload, seed, seconds, trace, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runOne runs one workload, untraced or traced, in its own scratch
// directory, which it removes afterwards.
func runOne(root, bin, workload string, seed int64, seconds float64, trace int, report io.Writer) (*outcome, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want one of %v)", workload, workloadNames())
	}
	work, err := os.MkdirTemp(filepath.Join(root, buildDirName), "run-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rc := &runConfig{root: root, bin: bin, work: work, seed: seed, seconds: seconds, out: report}

	var res *result
	switch trace {
	case 0:
		res, _, err = fn(rc)
	case 1:
		res, err = runTraced(rc, workload)
	default:
		return nil, fmt.Errorf("--trace %d invalid (want 0 or 1)", trace)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if err := res.finite(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	out := &outcome{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}, exact: res.exact}
	for name, v := range res.metrics {
		out.Metrics[name] = metricValue{Value: v, Unit: res.units[name]}
	}
	return out, nil
}

// finite rejects a metric nothing was measured for (0/0, a median of no
// samples): a number that is not one must not reach the output.
func (r *result) finite() error {
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v: nothing was measured for it", name, v)
		}
	}
	return nil
}
