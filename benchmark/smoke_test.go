package main

import (
	"io"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadTestSpec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

// BENCHMARK.json must stay inside the driver's contract and name
// exactly the workloads this program runs.
func TestSpecIsWellFormed(t *testing.T) {
	spec, _ := loadTestSpec(t)
	if len(spec.Command) == 0 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	if runs := 4 + 22*len(spec.Workloads); runs*(spec.RunSeconds+18) > 3420 {
		t.Errorf("%d runs of %d s plus ~18 s of set-up, restarts and checks each do not fit 3420 s", runs, spec.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the allowed alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		unique(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if _, ok := traceShapes[w.Name]; !ok {
			t.Errorf("workload %q has no traced pass", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %q: unit %q better %q bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
}

// The smoke run: build scalerd, run every declared workload untraced and
// traced with 1 s windows, and check that each run is correct and emits
// exactly the declared metrics — each once, with its declared unit, and
// nothing else.
func TestQuickSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots scalerd for every workload")
	}
	spec, root := loadTestSpec(t)
	bin, err := buildScalerd(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, declared := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			out, err := runOne(root, bin, w.Name, 1, 1, trace, io.Discard)
			if err != nil {
				t.Errorf("%s trace=%d: %v", w.Name, trace, err)
				continue
			}
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			for _, m := range declared {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: declared metric %s was not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: %s emitted in %q, declared in %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g, must be positive", w.Name, m.Name, got.Value)
				}
			}
			if len(out.Metrics) != len(declared) {
				for name := range out.Metrics {
					found := false
					for _, m := range declared {
						found = found || m.Name == name
					}
					if !found {
						t.Errorf("%s trace=%d: emitted undeclared metric %s", w.Name, trace, name)
					}
				}
			}
		}
	}
}
