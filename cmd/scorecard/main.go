// Command scorecard regenerates the two committed, byte-deterministic
// scorecards of internal/scenario and writes them as JSON:
//
//   - scorecard scenario drives the workload-scenario corpus through the
//     real engine (ingest → train → plan/forecast) and replays the
//     engine-trained RobustScaler-HP policy against the BP and AdapBP
//     baselines — SCENARIOS.json;
//   - scorecard closedloop replays the same traces through the full
//     autoscaler pipeline (Collect → Analyze → Optimize → Actuate,
//     pipeline.SimPolicy inside the simulator) — CLOSEDLOOP.json.
//
// The committed files are the full runs; CI runs the quick variant
// (truncated test spans, same envelopes) and gates on the envelope
// verdict.
//
// Usage:
//
//	go run ./cmd/scorecard scenario                  # full corpus, writes SCENARIOS.json
//	go run ./cmd/scorecard closedloop                # full corpus, writes CLOSEDLOOP.json
//	go run ./cmd/scorecard scenario -quick -out /tmp/s.json
//	go run ./cmd/scorecard closedloop -quick -check CLOSEDLOOP.json
//
// The process exits non-zero when any scenario misses its envelope —
// the envelopes are hard-asserted on every run, committed or not. With
// -check, the run is additionally compared against a committed
// scorecard: the committed file must itself pass its envelopes and
// cover the same scenario set with the same bounds, so a stale or
// hand-edited scorecard fails loudly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"robustscaler/internal/scenario"
)

// row is what the shared tail needs of one scenario's score, whichever
// scorecard it came from.
type row struct {
	name     string
	summary  string // the headline numbers, for the progress line
	envelope any    // a comparable bounds struct
	checks   []scenario.Check
	ok       bool
}

func scenarioRows(rep *scenario.Report) (bool, []row) {
	var rows []row
	for _, s := range rep.Scenarios {
		sum := fmt.Sprintf("%6d test queries  hit=%.3f relcost=%.3f", s.TestQueries, s.Robust.HitRate, s.Robust.RelativeCost)
		if s.Forecast != nil {
			sum += fmt.Sprintf(" wape=%.3f", s.Forecast.WAPE)
		}
		rows = append(rows, row{s.Name, sum, s.Envelope, s.Checks, s.OK})
	}
	return rep.EnvelopesOK, rows
}

func closedLoopRows(rep *scenario.ClosedLoopReport) (bool, []row) {
	var rows []row
	for _, s := range rep.Scenarios {
		sum := fmt.Sprintf("%6d test queries  hit=%.3f relcost=%.3f guarded: hit=%.3f churn=%d/%d",
			s.TestQueries, s.Pipeline.HitRate, s.Pipeline.RelativeCost,
			s.Guarded.HitRate, s.Guarded.InstancesCreated, s.Pipeline.InstancesCreated)
		rows = append(rows, row{s.Name, sum, s.Envelope, s.Checks, s.OK})
	}
	return rep.EnvelopesOK, rows
}

func main() {
	if len(os.Args) < 2 {
		log.Fatal("usage: scorecard scenario|closedloop [-quick] [-out FILE] [-seed N] [-check FILE]")
	}
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "scenario":
		run(cmd, args, "SCENARIOS.json", func(seed int64, quick bool) (*scenario.Report, error) {
			return scenario.RunCorpus(scenario.Corpus(), seed, quick)
		}, scenarioRows)
	case "closedloop":
		run(cmd, args, "CLOSEDLOOP.json", func(seed int64, quick bool) (*scenario.ClosedLoopReport, error) {
			return scenario.RunClosedLoopCorpus(scenario.ClosedLoopCorpus(), seed, quick)
		}, closedLoopRows)
	default:
		log.Fatalf("unknown scorecard %q (want scenario or closedloop)", cmd)
	}
}

// run is one scorecard subcommand: parse the shared flags, produce the
// report, write it, print a line per scenario, cross-check against the
// committed file and exit non-zero on a missed envelope.
func run[R any](name string, args []string, defaultOut string, produce func(seed int64, quick bool) (*R, error), rows func(*R) (bool, []row)) {
	fs := flag.NewFlagSet("scorecard "+name, flag.ExitOnError)
	var (
		quick = fs.Bool("quick", false, "truncate replayed test spans (CI smoke); envelopes still apply")
		out   = fs.String("out", defaultOut, "output JSON path")
		seed  = fs.Int64("seed", 1, "base seed for generators, engine and simulator")
		check = fs.String("check", "", "committed scorecard to cross-check (scenario set + envelope verdict)")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	rep, err := produce(*seed, *quick)
	if err != nil {
		log.Fatal(err)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}

	_, cur := rows(rep)
	bad := 0
	for _, r := range cur {
		verdict := "ok"
		if !r.ok {
			verdict = "ENVELOPE MISSED"
			bad++
		}
		fmt.Fprintf(os.Stderr, "%-16s %s  %s\n", r.name, r.summary, verdict)
		for _, c := range r.checks {
			if !c.OK {
				fmt.Fprintf(os.Stderr, "  MISSED %s: %g vs bound %g\n", c.Name, c.Value, c.Bound)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios)\n", *out, len(cur))

	if *check != "" {
		if err := crossCheck(*check, cur, rows); err != nil {
			log.Fatal(err)
		}
	}
	if bad > 0 {
		log.Fatalf("%d scenario(s) missed their envelope", bad)
	}
}

// crossCheck validates a committed scorecard against this run: it must
// pass its own envelopes and describe the same scenarios with the same
// envelope bounds, so the committed file can't silently drift from the
// corpus in code.
func crossCheck[R any](path string, cur []row, rows func(*R) (bool, []row)) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading committed scorecard: %w", err)
	}
	var base R
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	envelopesOK, baseRows := rows(&base)
	if !envelopesOK {
		return fmt.Errorf("%s records envelopes_ok=false; re-run the full corpus and commit", path)
	}
	baseEnv := map[string]any{}
	for _, r := range baseRows {
		baseEnv[r.name] = r.envelope
	}
	if len(baseEnv) != len(cur) {
		return fmt.Errorf("%s has %d scenarios, corpus has %d; regenerate it", path, len(baseEnv), len(cur))
	}
	for _, r := range cur {
		env, ok := baseEnv[r.name]
		if !ok {
			return fmt.Errorf("scenario %q missing from %s; regenerate it", r.name, path)
		}
		if env != r.envelope {
			return fmt.Errorf("scenario %q envelope drifted from %s; regenerate it", r.name, path)
		}
	}
	fmt.Fprintf(os.Stderr, "cross-check ok against %s (%d scenarios)\n", path, len(baseEnv))
	return nil
}
