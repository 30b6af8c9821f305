package pipeline

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"robustscaler/internal/engine"
	"robustscaler/internal/stats"
)

// knobs is shorthand for test decider configs.
type knobs = engine.AutoscaleKnobs

func TestPoissonQuantile(t *testing.T) {
	cases := []struct {
		lambda, q float64
		want      int
	}{
		{0, 0.9, 0},
		{-5, 0.9, 0},
		{math.NaN(), 0.9, 0},
		{math.Inf(1), 0.9, 0},
		{10, 0, 0},
	}
	for _, tc := range cases {
		if got := poissonQuantile(tc.lambda, tc.q); got != tc.want {
			t.Errorf("poissonQuantile(%g, %g) = %d, want %d", tc.lambda, tc.q, got, tc.want)
		}
	}
	// The definition: smallest k with CDF(k) ≥ q.
	for _, lambda := range []float64{0.3, 2, 17.5, 400} {
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			k := poissonQuantile(lambda, q)
			qq := q
			if qq >= 1 {
				qq = 1 - 1e-12
			}
			p := stats.Poisson{Lambda: lambda}
			if p.CDF(k) < qq {
				t.Fatalf("quantile(%g, %g) = %d but CDF(k) = %g < q", lambda, q, k, p.CDF(k))
			}
			if k > 0 && p.CDF(k-1) >= qq {
				t.Fatalf("quantile(%g, %g) = %d not minimal: CDF(k-1) = %g ≥ q", lambda, q, k, p.CDF(k-1))
			}
		}
	}
	// The cap short-circuit: an absurd lambda recommends the cap, not a
	// million-step scan.
	if got := poissonQuantile(2e6, 0.9); got != maxDesiredReplicas {
		t.Fatalf("quantile(2e6) = %d, want the %d cap", got, maxDesiredReplicas)
	}
}

func TestDeciderBehaviors(t *testing.T) {
	// Each case is a fresh decider deciding once (relative behaviors
	// that need history get their own subtests below).
	cases := []struct {
		name        string
		in          DecideInput
		wantDesired int
		wantVerdict string
		wantClamp   string
	}{
		{"raw up", DecideInput{Lambda: 20, Target: 0.9, Current: 10}, 26, VerdictUp, ""},
		{"raw hold", DecideInput{Lambda: 20, Target: 0.9, Current: 26}, 26, VerdictHold, ""},
		{"raw down", DecideInput{Lambda: 20, Target: 0.9, Current: 40}, 26, VerdictDown, ""},
		{"min floor", DecideInput{Lambda: 0, Target: 0.9, Current: 0,
			Knobs: knobs{MinReplicas: 3}}, 3, VerdictUp, ClampMinReplicas},
		{"max cap", DecideInput{Lambda: 20, Target: 0.9, Current: 5,
			Knobs: knobs{MaxReplicas: 10}}, 10, VerdictUp, ClampMaxReplicas},
		{"up step", DecideInput{Lambda: 20, Target: 0.9, Current: 5,
			Knobs: knobs{ScaleUpMaxStep: 4}}, 9, VerdictUp, ClampUpStep},
		{"down step", DecideInput{Lambda: 20, Target: 0.9, Current: 40,
			Knobs: knobs{ScaleDownMaxStep: 6}}, 34, VerdictDown, ClampDownStep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d Decider
			rec := d.Decide(tc.in)
			if rec.Desired != tc.wantDesired || rec.Verdict != tc.wantVerdict || rec.ClampedBy != tc.wantClamp {
				t.Fatalf("Decide(%+v) = desired %d verdict %q clamp %q, want %d %q %q",
					tc.in, rec.Desired, rec.Verdict, rec.ClampedBy, tc.wantDesired, tc.wantVerdict, tc.wantClamp)
			}
		})
	}

	t.Run("stabilization window", func(t *testing.T) {
		var d Decider
		k := knobs{ScaleDownStabilizationSeconds: 60}
		// A high recommendation at t=0...
		d.Decide(DecideInput{Now: 0, Lambda: 40, Target: 0.9, Current: 48, Knobs: k})
		// ...pins the floor for a drop at t=30: the window's max (48) caps
		// at current, so the decision is a hold, clamped by the window.
		rec := d.Decide(DecideInput{Now: 30, Lambda: 2, Target: 0.9, Current: 48, Knobs: k})
		if rec.Desired != 48 || rec.Verdict != VerdictHold || rec.ClampedBy != ClampStabilization {
			t.Fatalf("inside window: desired %d verdict %q clamp %q, want 48 hold %q",
				rec.Desired, rec.Verdict, rec.ClampedBy, ClampStabilization)
		}
		// Past the window the old high opinion has expired and the drop
		// goes through (only the trailing 60 s of history counts).
		rec = d.Decide(DecideInput{Now: 120, Lambda: 2, Target: 0.9, Current: 48, Knobs: k})
		if rec.Verdict != VerdictDown {
			t.Fatalf("outside window: verdict %q (desired %d), want down", rec.Verdict, rec.Desired)
		}
	})

	t.Run("cooldown", func(t *testing.T) {
		var d Decider
		k := knobs{ScaleDownCooldownSeconds: 120}
		// First scale-down goes through and stamps the cooldown.
		rec := d.Decide(DecideInput{Now: 0, Lambda: 2, Target: 0.9, Current: 20, Knobs: k})
		if rec.Verdict != VerdictDown {
			t.Fatalf("first drop: verdict %q, want down", rec.Verdict)
		}
		// A second drop inside the cooldown holds.
		rec = d.Decide(DecideInput{Now: 60, Lambda: 1, Target: 0.9, Current: rec.Desired, Knobs: k})
		if rec.Verdict != VerdictHold || rec.ClampedBy != ClampCooldown {
			t.Fatalf("inside cooldown: verdict %q clamp %q, want hold %q", rec.Verdict, rec.ClampedBy, ClampCooldown)
		}
		// Scale-ups are never cooled down.
		rec = d.Decide(DecideInput{Now: 70, Lambda: 50, Target: 0.9, Current: 5, Knobs: k})
		if rec.Verdict != VerdictUp {
			t.Fatalf("up during cooldown: verdict %q, want up", rec.Verdict)
		}
		// Past the cooldown the drop resumes.
		rec = d.Decide(DecideInput{Now: 200, Lambda: 1, Target: 0.9, Current: 20, Knobs: k})
		if rec.Verdict != VerdictDown {
			t.Fatalf("after cooldown: verdict %q, want down", rec.Verdict)
		}
	})
}

// TestFlashCrowdNeverViolatesAntiFlapping replays a flash-crowd spike +
// decay through the Decider across a grid of behavior settings and
// asserts the two anti-flapping invariants on every decision:
//
//  1. Stabilization: the applied desired count never drops below the
//     highest bounded (post-min/max) recommendation made within the
//     trailing window.
//  2. Cooldown: once a decision lowers the count, no later decision
//     lowers it again until the cooldown has fully elapsed.
//
// The λ sequence is seeded pseudo-random jitter over a deterministic
// spike shape, so failures reproduce exactly.
func TestFlashCrowdNeverViolatesAntiFlapping(t *testing.T) {
	shapes := []struct {
		name             string
		window, cooldown float64
	}{
		{"window only", 120, 0},
		{"cooldown only", 0, 90},
		{"both", 300, 60},
		{"tight", 30, 15},
	}
	const tick = 15.0
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			k := knobs{
				MinReplicas:                   1,
				ScaleDownStabilizationSeconds: sh.window,
				ScaleDownCooldownSeconds:      sh.cooldown,
			}
			var d Decider
			type past struct {
				at      float64
				bounded int
			}
			var history []past
			cur := 1
			lastDownAt := math.Inf(-1)
			for i := 0; i < 400; i++ {
				now := float64(i) * tick
				// Flash crowd: quiet base, a sharp spike at t=1500 s, then
				// exponential decay — plus jitter so ties and near-misses
				// get exercised.
				lambda := 2.0
				if now >= 1500 {
					lambda += 80 * math.Exp(-(now-1500)/600)
				}
				lambda *= 0.8 + 0.4*rng.Float64()

				rec := d.Decide(DecideInput{Now: now, Lambda: lambda, Target: 0.9, Current: cur, Knobs: k})

				// Recompute the bounded recommendation independently.
				bounded := poissonQuantile(lambda, 0.9)
				if bounded < k.MinReplicas {
					bounded = k.MinReplicas
				}
				history = append(history, past{at: now, bounded: bounded})

				// Invariant 1: stabilization window.
				if w := k.ScaleDownStabilizationSeconds; w > 0 && rec.Desired < cur {
					floor := 0
					for _, h := range history {
						if h.at >= now-w && h.bounded > floor {
							floor = h.bounded
						}
					}
					if floor > cur {
						floor = cur
					}
					if rec.Desired < floor {
						t.Fatalf("t=%g: scaled down to %d below the window floor %d (window %gs)",
							now, rec.Desired, floor, w)
					}
				}
				// Invariant 2: cooldown.
				if rec.Desired < cur {
					if cd := k.ScaleDownCooldownSeconds; cd > 0 && now-lastDownAt < cd {
						t.Fatalf("t=%g: scale-down %gs after the previous one, inside the %gs cooldown",
							now, now-lastDownAt, cd)
					}
					lastDownAt = now
				}
				// Converged actuator: the next decision sees what this one
				// applied.
				cur = rec.Desired
			}
		})
	}
}

// TestDeciderByteDeterministic replays the identical input sequence
// through two fresh Deciders and requires byte-identical marshaled
// recommendations — the property CLOSEDLOOP.json's CI byte-equality
// gate rests on.
func TestDeciderByteDeterministic(t *testing.T) {
	replay := func() []byte {
		rng := rand.New(rand.NewSource(11))
		var d Decider
		k := knobs{MinReplicas: 1, MaxReplicas: 500, ScaleUpMaxStep: 25,
			ScaleDownStabilizationSeconds: 120, ScaleDownCooldownSeconds: 45}
		cur := 1
		var recs []Recommendation
		for i := 0; i < 300; i++ {
			lambda := 30*rng.Float64() + 5*math.Sin(float64(i)/9)
			rec := d.Decide(DecideInput{Now: float64(i) * 10, Lambda: lambda, Target: 0.95, Current: cur, Knobs: k})
			recs = append(recs, rec)
			cur = rec.Desired
		}
		blob, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	a, b := replay(), replay()
	if string(a) != string(b) {
		t.Fatal("identical decision sequences marshaled to different bytes")
	}
}

func TestSimCluster(t *testing.T) {
	sc := NewSimCluster(13)
	if err := sc.Apply("w", 3, 100); err != nil {
		t.Fatal(err)
	}
	st := sc.State("w", 100)
	if st.Desired != 3 || st.Current != 3 || st.Ready != 0 {
		t.Fatalf("right after scale-up: %+v, want 3 current, 0 ready", st)
	}
	st = sc.State("w", 113)
	if st.Ready != 3 {
		t.Fatalf("after the pending delay: ready %d, want 3", st.Ready)
	}
	// Scale up again at t=120, then immediately down: the two pending
	// instances (least ready) must be removed first, keeping the three
	// warm ones.
	if err := sc.Apply("w", 5, 120); err != nil {
		t.Fatal(err)
	}
	if err := sc.Apply("w", 3, 121); err != nil {
		t.Fatal(err)
	}
	st = sc.State("w", 121)
	if st.Current != 3 || st.Ready != 3 {
		t.Fatalf("after up-then-down: %+v, want the 3 warm instances kept", st)
	}
	created, deleted := sc.Lifecycle("w")
	if created != 5 || deleted != 2 {
		t.Fatalf("lifecycle = (%d created, %d deleted), want (5, 2)", created, deleted)
	}
	if st.Actuations != 3 {
		t.Fatalf("actuations = %d, want 3", st.Actuations)
	}
	// Unknown workloads read as empty, not as an error.
	if st := sc.State("ghost", 0); st != (ReplicaState{}) {
		t.Fatalf("unknown workload state = %+v", st)
	}
}

func TestDryRunConverges(t *testing.T) {
	d := NewDryRun()
	if err := d.Apply("w", 7, 50); err != nil {
		t.Fatal(err)
	}
	st := d.State("w", 50)
	if st.Desired != 7 || st.Current != 7 || st.Ready != 7 || st.Actuations != 1 {
		t.Fatalf("dry-run state = %+v, want a converged 7", st)
	}
}

// testRegistry builds an engine registry with an adjustable clock and
// one trained workload.
func testRegistry(t *testing.T, now *float64) (*engine.Registry, *engine.Engine) {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.MCSamples = 200
	cfg.Now = func() float64 { return *now }
	reg, err := engine.NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.GetOrCreate("svc")
	if err != nil {
		t.Fatal(err)
	}
	var arr []float64
	ts := 0.0
	for ts < *now {
		ts += 2 + math.Sin(2*math.Pi*ts/3600)
		arr = append(arr, ts)
	}
	if _, err := e.Ingest(arr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	return reg, e
}

func TestManagerSweepActuatesEnabledWorkloads(t *testing.T) {
	now := 6 * 3600.0
	reg, e := testRegistry(t, &now)
	mgr := NewManager(reg, nil)

	// Nothing enabled: the sweep is a no-op.
	if decided, failed := mgr.SweepOnce(); decided != 0 || failed != 0 {
		t.Fatalf("sweep with autoscale off = (%d, %d), want (0, 0)", decided, failed)
	}

	ec := e.EngineConfig()
	ec.Autoscale.Enabled = true
	ec.Autoscale.MinReplicas = 1
	ec.Autoscale.IntervalSeconds = 30
	if _, err := e.SetEngineConfig(ec); err != nil {
		t.Fatal(err)
	}
	if decided, failed := mgr.SweepOnce(); decided != 1 || failed != 0 {
		t.Fatalf("sweep = (%d, %d), want (1, 0)", decided, failed)
	}
	c := mgr.For("svc", e)
	st := c.Status()
	if !st.Enabled || st.LastRecommendation == nil {
		t.Fatalf("status after sweep = %+v, want enabled with a recommendation", st)
	}
	if st.Replicas.Desired != st.LastRecommendation.Desired || st.Replicas.Actuations != 1 {
		t.Fatalf("actuator state %+v does not reflect the decision %+v", st.Replicas, st.LastRecommendation)
	}
	if st.LastRecommendation.Desired < 1 {
		t.Fatalf("desired %d below min_replicas", st.LastRecommendation.Desired)
	}

	// The per-workload interval gates the next sweep until the clock
	// moves.
	if decided, _ := mgr.SweepOnce(); decided != 0 {
		t.Fatalf("re-sweep inside interval_seconds decided %d, want 0", decided)
	}
	now += 31
	if decided, _ := mgr.SweepOnce(); decided != 1 {
		t.Fatalf("sweep after interval decided %d, want 1", decided)
	}
}

// TestRecommendReadsDoNotStarveSweep: served recommendations are reads.
// Polled more often than interval_seconds, they must not restart the
// sweep's interval clock, or the background loop never finds the
// workload due and nothing actuates.
func TestRecommendReadsDoNotStarveSweep(t *testing.T) {
	now := 6 * 3600.0
	reg, e := testRegistry(t, &now)
	mgr := NewManager(reg, nil)
	ec := e.EngineConfig()
	ec.Autoscale.Enabled = true
	ec.Autoscale.IntervalSeconds = 30
	if _, err := e.SetEngineConfig(ec); err != nil {
		t.Fatal(err)
	}
	if decided, _ := mgr.SweepOnce(); decided != 1 {
		t.Fatalf("first sweep decided %d, want 1", decided)
	}
	c := mgr.For("svc", e)
	// Read every 10 s and sweep right after each read: the sweeps at
	// +30 s and +60 s are due.
	swept := 0
	for i := 1; i <= 6; i++ {
		now += 10
		if _, err := c.Recommend(); err != nil {
			t.Fatal(err)
		}
		decided, failed := mgr.SweepOnce()
		if failed != 0 {
			t.Fatalf("sweep at +%ds failed", 10*i)
		}
		if due := i%3 == 0; (decided == 1) != due {
			t.Fatalf("sweep at +%ds decided %d, want due=%v", 10*i, decided, due)
		}
		swept += decided
	}
	if got := c.Status().Replicas.Actuations; got != uint64(1+swept) {
		t.Fatalf("actuations = %d, want %d (every sweep that ran)", got, 1+swept)
	}
}

func TestManagerControllerIdentityPinnedToEngine(t *testing.T) {
	now := 6 * 3600.0
	reg, e := testRegistry(t, &now)
	mgr := NewManager(reg, nil)
	c1 := mgr.For("svc", e)
	if mgr.For("svc", e) != c1 {
		t.Fatal("same engine, different controller")
	}
	// A recreated workload (fresh engine pointer) gets a fresh
	// controller — stale stabilization history must not leak across.
	reg.Remove("svc")
	e2, err := reg.GetOrCreate("svc")
	if err != nil {
		t.Fatal(err)
	}
	if mgr.For("svc", e2) == c1 {
		t.Fatal("recreated workload kept the old controller")
	}
}

// TestAnalyzerSeamIsTheEngine pins the refactor's bytes-identical
// guarantee: the Analyzer the control plane serves plans and forecasts
// through is the engine itself, so the rewired handlers cannot change a
// single response byte.
func TestAnalyzerSeamIsTheEngine(t *testing.T) {
	now := 6 * 3600.0
	reg, e := testRegistry(t, &now)
	mgr := NewManager(reg, nil)
	az := mgr.For("svc", e).Analyzer()
	if az != Analyzer(e) {
		t.Fatal("controller analyzer is not the workload's engine")
	}
	want, err := e.ForecastJSON(now, now+600, 60)
	if err != nil {
		t.Fatal(err)
	}
	got, err := az.ForecastJSON(now, now+600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatal("forecast bytes differ through the analyzer seam")
	}
}

func TestRecommendWithoutModelFails(t *testing.T) {
	now := 100.0
	cfg := engine.DefaultConfig()
	cfg.Now = func() float64 { return now }
	reg, err := engine.NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.GetOrCreate("cold")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(reg, nil)
	c := mgr.For("cold", e)
	if _, err := c.Recommend(); err == nil {
		t.Fatal("recommendation without a model succeeded")
	}
	st := c.Status()
	if st.LastError == "" {
		t.Fatalf("status after failed decision carries no error: %+v", st)
	}
}
