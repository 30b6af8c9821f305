package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The end-to-end metrics every workload reports (BENCHMARK.json's
// end_to_end list, in its order).
const (
	mSetupS       = "setup_s"
	mOpsPerS      = "ops_per_s"
	mIngestAckP50 = "ingest_ack_ms_p50"
	mQueryP50     = "query_ms_p50"
	mTailMs       = "tail_ms"
	mRestartS     = "restart_s"
	mCPUPerOp     = "cpu_ms_per_op"
	mRSSPeak      = "rss_peak_mb"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

// restartRepeats is how many kill -9 → ready cycles restart_s is the
// median of where a restart restores state; bootRepeats where it does
// not (no data directory), and a cycle is a few milliseconds.
const (
	restartRepeats = 5
	bootRepeats    = 9
)

// opClass says what a request is, for latency bookkeeping.
type opClass int

const (
	opIngest opClass = iota
	opQuery
	opPlanRT
	opTrainCold
	opTrainWarm
	opTrainFallback // a sliding refit whose warm state no longer fitted and that ran cold
	opSnapshot
	numOpClasses
)

var opClassNames = [numOpClasses]string{"ingest", "query", "plan_rt", "train_cold", "train_warm", "train_fallback", "snapshot"}

// recorder is one goroutine's private bookkeeping; recorders are merged
// after their goroutines are done.
type recorder struct {
	lat [numOpClasses][]float64 // ms
	// done is when each request of lat completed (Unix ns), index for index.
	done      [numOpClasses][]int64
	attempted int
	failed    int
	// problems keeps the first few failure descriptions.
	problems []string
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.done[c] = append(r.done[c], o.done[c]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for _, p := range o.problems {
		if len(r.problems) < 8 {
			r.problems = append(r.problems, p)
		}
	}
}

// absorbFailures takes over the failures of a phase whose timings are
// discarded (a warm-up): a failure there is still a failure of the run.
func (r *recorder) absorbFailures(o *recorder) {
	r.attempted += o.failed
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

func (r *recorder) total() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// timed issues one request on the lane, classifies and times it from
// start (the send time in a closed loop, the due time in an open one),
// and returns the body on a 200. Anything else — transport error,
// timeout, non-200 — is a failed op that contributes no latency.
func (r *recorder) timed(l *lane, class opClass, start time.Time, req []byte, what string) ([]byte, bool) {
	r.attempted++
	status, body, err := l.do(req)
	if err != nil {
		r.fail("%s: %v", what, err)
		if rerr := l.redial(); rerr != nil {
			r.fail("%s: reconnecting: %v", what, rerr)
		}
		return nil, false
	}
	if status != 200 {
		r.fail("%s: HTTP %d: %.200s", what, status, body)
		return nil, false
	}
	end := time.Now()
	r.lat[class] = append(r.lat[class], float64(end.Sub(start))/float64(time.Millisecond))
	r.done[class] = append(r.done[class], end.UnixNano())
	return body, true
}

// reclassifyLast moves the latest sample of one class to another, for a
// request whose response says what it really was.
func (r *recorder) reclassifyLast(from, to opClass) {
	n := len(r.lat[from]) - 1
	r.lat[to], r.done[to] = append(r.lat[to], r.lat[from][n]), append(r.done[to], r.done[from][n])
	r.lat[from], r.done[from] = r.lat[from][:n], r.done[from][:n]
}

// tailWindows is how many equal sub-windows a time-bounded workload's
// measured window is cut into for its tail.
const tailWindows = 5

// windowedTail is the tail the time-bounded workloads gate on: the
// p-quantile of the given classes' latencies within each of tailWindows
// equal sub-windows (by completion time), then the median of those. One
// p99 over the whole window is decided by the worst hundredth of it, and
// on a shared sandbox one hiccup — a neighbour, a writeback burst — can
// fill that hundredth; the median of five p99s shrugs off two bad
// sub-windows.
func (r *recorder) windowedTail(start time.Time, length time.Duration, p float64, classes ...opClass) float64 {
	buckets := make([][]float64, tailWindows)
	for _, c := range classes {
		for i, at := range r.done[c] {
			k := int(time.Duration(at-start.UnixNano()) * tailWindows / length)
			if k >= 0 && k < tailWindows {
				buckets[k] = append(buckets[k], r.lat[c][i])
			}
		}
	}
	var tails []float64
	for _, b := range buckets {
		if len(b) > 0 {
			tails = append(tails, pct(b, p))
		}
	}
	return median(tails)
}

// runConfig is what a workload run is given.
type runConfig struct {
	root    string // repository checkout
	bin     string // built scalerd
	work    string // scratch directory of this run, removed afterwards
	seed    int64
	seconds float64
	out     io.Writer // human-readable report
}

// warmup is the share of the measured window spent warming up before
// it, discarded.
func (rc *runConfig) warmup() time.Duration {
	w := time.Duration(rc.seconds * 0.1 * float64(time.Second))
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

func (rc *runConfig) window() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// dataDir returns a fresh directory under the run's scratch space.
func (rc *runConfig) dataDir(name string) (string, error) {
	d := filepath.Join(rc.work, name)
	return d, os.MkdirAll(d, 0o755)
}

// result is what a workload run produces.
type result struct {
	metrics map[string]float64
	units   map[string]string
	// exact holds values that are pure functions of the seed and the window
	// length — scores, designed counts. They are not gated metrics; the A/A
	// mode and the tests demand that they repeat bit for bit.
	exact     map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, units: map[string]string{}, exact: map[string]float64{}}
}

func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = v
	r.units[name] = unit
}

// violation records a failed correctness gate: it counts as one failed
// op, so a run with any violation is never reported correct.
func (r *result) violation(format string, args ...any) {
	r.attempted++
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) absorb(rec *recorder) {
	r.attempted += rec.attempted
	r.failed += rec.failed
	r.problems = append(r.problems, rec.problems...)
}

// repeatSetup sets the workload up setupRepeats times — each on a fresh
// scalerd, earlier ones killed — and returns the last instance with the
// median set-up time.
func repeatSetup(setup func(i int) (*scalerd, error)) (*scalerd, float64, error) {
	var times []float64
	var s *scalerd
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.kill()
		}
		start := time.Now()
		var err error
		if s, err = setup(i); err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, median(times), nil
}

// repeatRestart is n kill -9 → ready cycles; afterFirst runs once the
// first restart is up (the recovery audit).
func repeatRestart(s *scalerd, n int, ready func() bool, afterFirst func() error) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		d, err := s.restart(ready)
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
		if i == 0 && afterFirst != nil {
			if err := afterFirst(); err != nil {
				return 0, err
			}
		}
	}
	return median(times), s.bootDamage()
}

// listsWorkloads returns a ready() for restart: true once GET
// /v1/workloads names n workloads.
func listsWorkloads(s *scalerd, n int) func() bool {
	return func() bool {
		l, err := dialLane(s.addr)
		if err != nil {
			return false
		}
		defer l.close()
		body, err := l.mustOK(getRequest("/v1/workloads"), "listing workloads")
		if err != nil {
			return false
		}
		var resp struct {
			Workloads []string `json:"workloads"`
		}
		return json.Unmarshal(body, &resp) == nil && len(resp.Workloads) == n
	}
}

// dialLanes opens n connections to s; closeAll closes them.
func dialLanes(s *scalerd, n int) (lanes []*lane, closeAll func(), err error) {
	closeAll = func() {
		for _, l := range lanes {
			l.close()
		}
	}
	for i := 0; i < n; i++ {
		l, err := dialLane(s.addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		lanes = append(lanes, l)
	}
	return lanes, closeAll, nil
}

// onLanes runs fn(c, lane c) on n fresh connections to s in parallel —
// the shape of every set-up's seeding — and closes them.
func onLanes(s *scalerd, n int, fn func(c int, l *lane) error) error {
	lanes, closeAll, err := dialLanes(s, n)
	if err != nil {
		return err
	}
	defer closeAll()
	return inParallel(n, func(c int) error { return fn(c, lanes[c]) })
}

// inParallel runs fn(0..n-1) on n goroutines and waits for all of them,
// returning the first error.
func inParallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// window brackets a measured window with /proc readings.
type window struct {
	s     *scalerd
	start time.Time
	cpu0  time.Duration
}

func beginWindow(s *scalerd) (*window, error) {
	u, err := s.usage()
	if err != nil {
		return nil, err
	}
	return &window{s: s, start: time.Now(), cpu0: u.cpu}, nil
}

// finish fills the metrics every workload derives the same way from
// the merged recorder: throughput, server CPU per request and peak RSS.
func (w *window) finish(res *result, rec *recorder) error {
	elapsed := time.Since(w.start).Seconds()
	u, err := w.s.usage()
	if err != nil {
		return err
	}
	ops := rec.total()
	if ops == 0 {
		return fmt.Errorf("no request completed in the measured window")
	}
	res.set(mOpsPerS, "1/s", float64(ops)/elapsed)
	res.set(mCPUPerOp, "ms", float64(u.cpu-w.cpu0)/float64(time.Millisecond)/float64(ops))
	res.set(mRSSPeak, "MB", u.rssPeakMB)
	return nil
}

// report prints the human-readable half of a run: every gated metric,
// then each request class's timing with its sample count, median, the
// highest percentile the count supports, and p999 as a diagnostic.
func report(out io.Writer, workload string, res *result, rec *recorder, extra [][3]string) {
	fmt.Fprintf(out, "== %s\n", workload)
	res.printMetrics(out)
	for c := opClass(0); c < numOpClasses; c++ {
		if len(rec.lat[c]) == 0 {
			continue
		}
		s := summarize(rec.lat[c])
		fmt.Fprintf(out, "  [%s] n=%d p50=%.4f ms p%g=%.4f ms (p999=%.4f ms, diagnostic)\n",
			opClassNames[c], s.N, s.P50, s.TailP*100, s.Tail, s.P999)
	}
	for _, e := range extra {
		fmt.Fprintf(out, "  %-40s %16s %s\n", e[0], e[1], e[2])
	}
	fmt.Fprintf(out, "  ops_attempted=%d ops_failed=%d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
}

// printMetrics lists every metric by name with its value and unit.
func (r *result) printMetrics(out io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-40s %16.4f %s\n", n, r.metrics[n], r.units[n])
	}
}

func diag(name string, v float64, unit string) [3]string {
	return [3]string{name, fmt.Sprintf("%.4f", v), unit}
}
