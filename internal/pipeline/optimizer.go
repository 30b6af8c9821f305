package pipeline

// The Optimize stage: a pure, deterministic decision function from
// forecast inputs to a clamped replica recommendation. The Decider
// carries only the state the HPA-style behaviors need — the trailing
// recommendation history for the scale-down stabilization window and
// the last scale-down stamp for the cooldown — so the same type drives
// the live controller, the simulated replay (SimPolicy) and the unit
// tests, and a fixed input sequence always yields byte-identical
// recommendations.

import (
	"math"

	"robustscaler/internal/engine"
	"robustscaler/internal/stats"
)

// Clamp reasons, reported in Recommendation.ClampedBy so an operator
// can see which behavior or window bounded the decision.
const (
	ClampMinReplicas   = "min_replicas"
	ClampMaxReplicas   = "max_replicas"
	ClampUpStep        = "scale_up_max_step"
	ClampDownStep      = "scale_down_max_step"
	ClampStabilization = "scale_down_stabilization_window"
	ClampCooldown      = "scale_down_cooldown"
)

// Verdicts: the decision's direction relative to the current count.
const (
	VerdictUp   = "up"
	VerdictDown = "down"
	VerdictHold = "hold"
)

// DecideInput is one decision's inputs.
type DecideInput struct {
	// Now anchors the decision (workload clock seconds).
	Now float64
	// Lambda is Λ(now, now+Lead): the expected arrivals over the
	// replenish lead time, from the analyzer.
	Lambda float64
	// Lead is the covered horizon in seconds (reported back in the
	// recommendation inputs).
	Lead float64
	// Target is the readiness probability the pool must cover.
	Target float64
	// Current is the replica count the backend reports now.
	Current int
	// Knobs are the workload's autoscale behaviors.
	Knobs engine.AutoscaleKnobs
}

// Inputs echoes what a recommendation was computed from, so the
// endpoint's response is auditable without correlating logs.
type Inputs struct {
	ExpectedArrivals float64 `json:"expected_arrivals"`
	LeadSeconds      float64 `json:"lead_seconds"`
	Target           float64 `json:"target"`
	CurrentReplicas  int     `json:"current_replicas"`
}

// Recommendation is one decision: the desired replica count, the
// direction, which behavior clamped it, and the inputs it came from —
// the ADR-003 HPA shape (min/max, behaviors, windows) as a decision
// record.
type Recommendation struct {
	Workload string  `json:"workload,omitempty"`
	Now      float64 `json:"now"`
	// Desired is the post-clamp replica target the actuator applies.
	Desired int `json:"desired_replicas"`
	// Raw is the model-driven pool size before any behavior clamped it:
	// the Target-quantile of Poisson(Λ).
	Raw int `json:"raw_replicas"`
	// Verdict is "up", "down" or "hold", comparing Desired to the
	// current count.
	Verdict string `json:"verdict"`
	// ClampedBy names the behavior/window that bounded the decision
	// ("" when the raw recommendation was applied unclamped).
	ClampedBy string `json:"clamped_by,omitempty"`
	// Inputs echoes the decision inputs.
	Inputs Inputs `json:"inputs"`
	// Sample is the collected state the decision ran over (set by the
	// controller; absent in bare Decider use).
	Sample *Sample `json:"sample,omitempty"`
}

// histEntry is one trailing recommendation (post min/max, pre-relative
// clamps) for the stabilization window.
type histEntry struct {
	at      float64
	bounded int
}

// Decider is the optimizer's decision state. The zero value is ready to
// use.
type Decider struct {
	hist []histEntry
	// lastScaleDown stamps the most recent decision that actually
	// lowered the desired count; the cooldown measures from it.
	lastScaleDown float64
	hasScaledDown bool
}

// Decide computes one recommendation and records it in the trailing
// history. Pure apart from the Decider's own state: no clock, no RNG —
// a fixed input sequence yields an identical recommendation sequence.
func (d *Decider) Decide(in DecideInput) Recommendation {
	k := in.Knobs
	rec := Recommendation{
		Now: in.Now,
		Inputs: Inputs{
			ExpectedArrivals: in.Lambda,
			LeadSeconds:      in.Lead,
			Target:           in.Target,
			CurrentReplicas:  in.Current,
		},
	}

	// Analyze → raw desired: the pool must hold the Target-quantile of
	// the arrivals expected before replacements can be ready (the
	// paper's one-instance-per-query pool model).
	raw := poissonQuantile(in.Lambda, in.Target)
	rec.Raw = raw

	// Absolute bounds first: min/max replicas.
	desired := raw
	if desired < k.MinReplicas {
		desired = k.MinReplicas
		rec.ClampedBy = ClampMinReplicas
	}
	maxR := k.MaxReplicas
	if maxR <= 0 {
		maxR = maxDesiredReplicas
	}
	if desired > maxR {
		desired = maxR
		if k.MaxReplicas > 0 {
			rec.ClampedBy = ClampMaxReplicas
		}
	}

	// The stabilization window looks at bounded recommendations — what
	// the optimizer wanted within min/max — not at post-rate-clamp
	// values, which would make the window see its own damping.
	d.push(in.Now, desired, k.ScaleDownStabilizationSeconds)

	cur := in.Current
	switch {
	case desired > cur:
		if k.ScaleUpMaxStep > 0 && desired-cur > k.ScaleUpMaxStep {
			desired = cur + k.ScaleUpMaxStep
			rec.ClampedBy = ClampUpStep
		}
	case desired < cur:
		// HPA scale-down stabilization: never drop below the highest
		// recommendation made within the trailing window.
		if w := k.ScaleDownStabilizationSeconds; w > 0 {
			if m := d.windowMax(in.Now - w); m > desired {
				desired = m
				if desired > cur {
					desired = cur
				}
				rec.ClampedBy = ClampStabilization
			}
		}
		if desired < cur {
			if cd := k.ScaleDownCooldownSeconds; cd > 0 && d.hasScaledDown && in.Now-d.lastScaleDown < cd {
				desired = cur
				rec.ClampedBy = ClampCooldown
			} else if k.ScaleDownMaxStep > 0 && cur-desired > k.ScaleDownMaxStep {
				desired = cur - k.ScaleDownMaxStep
				rec.ClampedBy = ClampDownStep
			}
		}
	}

	if desired < cur {
		d.lastScaleDown = in.Now
		d.hasScaledDown = true
	}
	rec.Desired = desired
	switch {
	case desired > cur:
		rec.Verdict = VerdictUp
	case desired < cur:
		rec.Verdict = VerdictDown
	default:
		rec.Verdict = VerdictHold
	}
	return rec
}

// push appends one bounded recommendation and trims entries older than
// the window (plus the newest one outside it is kept until it expires
// naturally; an empty window keeps nothing).
func (d *Decider) push(at float64, bounded int, window float64) {
	if window <= 0 {
		d.hist = d.hist[:0]
		return
	}
	d.hist = append(d.hist, histEntry{at: at, bounded: bounded})
	cut := at - window
	i := 0
	for i < len(d.hist) && d.hist[i].at < cut {
		i++
	}
	if i > 0 {
		d.hist = append(d.hist[:0], d.hist[i:]...)
	}
	// A poller hammering the recommendation endpoint fills the window
	// with duplicates; bound the memory by dropping the oldest entries
	// (the guarantee degrades gracefully — the window can only get
	// shorter, never stale).
	if len(d.hist) > maxHistEntries {
		d.hist = append(d.hist[:0], d.hist[len(d.hist)-maxHistEntries:]...)
	}
}

// maxHistEntries bounds the stabilization history.
const maxHistEntries = 4096

// windowMax returns the highest bounded recommendation at or after cut.
func (d *Decider) windowMax(cut float64) int {
	m := 0
	for _, h := range d.hist {
		if h.at >= cut && h.bounded > m {
			m = h.bounded
		}
	}
	return m
}

// maxDesiredReplicas is the sanity cap applied when max_replicas is
// unset, mirroring the config plane's validation cap.
const maxDesiredReplicas = 1_000_000

// poissonQuantile is the pool size covering the arrival count at
// probability q: the q-quantile of Poisson(lambda), guarded against
// degenerate inputs — a non-positive or non-finite lambda recommends 0
// and lets min_replicas speak.
func poissonQuantile(lambda, q float64) int {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) || q <= 0 {
		return 0
	}
	if q >= 1 {
		q = 1 - 1e-12
	}
	// Past the sanity cap the quantile is within a rounding error of the
	// mean anyway, and the caller clamps to the cap regardless; skip the
	// scan instead of walking it a million steps.
	if lambda >= maxDesiredReplicas {
		return maxDesiredReplicas
	}
	return stats.Poisson{Lambda: lambda}.Quantile(q)
}
