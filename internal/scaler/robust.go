package scaler

import (
	"fmt"
	"math"
	"math/rand"

	"robustscaler/internal/decision"
	"robustscaler/internal/nhpp"
	"robustscaler/internal/sim"
	"robustscaler/internal/stats"
)

// Variant selects which stochastically constrained formulation the
// RobustScaler policy solves per upcoming query.
type Variant int

const (
	// HP minimizes expected cost subject to a hitting-probability floor
	// (eq. 2/3); the paper's RobustScaler-HP.
	HP Variant = iota
	// RT minimizes expected cost subject to an expected response-time
	// ceiling (eq. 4/5); RobustScaler-RT.
	RT
	// Cost minimizes expected waiting subject to a per-instance cost
	// budget (eq. 6/7); RobustScaler-cost.
	Cost
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case HP:
		return "HP"
	case RT:
		return "RT"
	case Cost:
		return "cost"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// RobustConfig parameterizes a RobustScaler policy.
type RobustConfig struct {
	// Variant selects the constraint type.
	Variant Variant
	// Alpha: HP variant targets hitting probability 1−Alpha.
	Alpha float64
	// RTTarget: RT variant's waiting budget d − µs (seconds, net of
	// processing time).
	RTTarget float64
	// CostBudget: Cost variant's idle budget B − µτ − µs (seconds per
	// instance, net of the irreducible pending+processing cost).
	CostBudget float64
	// Tau is the pending-time distribution (must match the simulator's).
	Tau stats.Dist
	// MCSamples R for the Monte Carlo solvers; the HP variant with a
	// deterministic Tau uses the exact Gamma-quantile path instead.
	MCSamples int
	// PlanWindow Δ: each planning round schedules every creation that
	// falls within the next Δ seconds. Should equal the simulator's
	// TickInterval.
	PlanWindow float64
	// Seed drives the policy's Monte Carlo draws.
	Seed int64
	// PlanEveryArrivals m > 0 selects the literal Algorithm 4 cadence:
	// planning happens every m query arrivals and commits creation times
	// for the next κ+m upcoming queries, ignoring the Δ window. 0 (the
	// default) uses the Δ-window variant the paper's experiments run.
	PlanEveryArrivals int
	// WindowExtension widens the planning window to Δ + WindowExtension
	// seconds — the paper's compensation for decision-computation delay in
	// real environments (Sec. VII-B2).
	WindowExtension float64
}

// RobustScaler is the paper's proactive policy: at every planning round it
// schedules instance creations for upcoming queries, each at the optimum
// of the selected stochastically constrained formulation, always planning
// far enough ahead that the first κ infeasible queries are already covered
// (the Δ-window form of Algorithm 4 with time-dependent κ).
type RobustScaler struct {
	cfg RobustConfig
	in  nhpp.Intensity
	rng *rand.Rand

	// Plan cache: skip recomputation while no arrivals occurred, the
	// committed-instance count is unchanged, and the next creation time is
	// still beyond the window.
	lastArrivals int
	lastAvail    int
	nextCreateAt float64
	cacheValid   bool

	// arrivalsSincePlan counts arrivals in PlanEveryArrivals mode.
	arrivalsSincePlan int

	xiBuf  []float64
	tauBuf []float64
}

// NewRobustScaler builds the policy for a forecast intensity.
func NewRobustScaler(in nhpp.Intensity, cfg RobustConfig) (*RobustScaler, error) {
	if in == nil {
		return nil, fmt.Errorf("scaler: nil intensity")
	}
	if cfg.Tau == nil {
		return nil, fmt.Errorf("scaler: nil pending-time distribution")
	}
	switch cfg.Variant {
	case HP:
		if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
			return nil, fmt.Errorf("scaler: HP variant needs Alpha in (0,1), got %g", cfg.Alpha)
		}
	case RT:
		if cfg.RTTarget < 0 {
			return nil, fmt.Errorf("scaler: negative RTTarget %g", cfg.RTTarget)
		}
	case Cost:
		if cfg.CostBudget < 0 {
			return nil, fmt.Errorf("scaler: negative CostBudget %g", cfg.CostBudget)
		}
	default:
		return nil, fmt.Errorf("scaler: unknown variant %d", cfg.Variant)
	}
	if cfg.MCSamples <= 0 {
		cfg.MCSamples = 400
	}
	if cfg.PlanWindow <= 0 {
		cfg.PlanWindow = 1
	}
	return &RobustScaler{
		cfg: cfg,
		in:  in,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// String identifies the policy in experiment output.
func (p *RobustScaler) String() string {
	switch p.cfg.Variant {
	case HP:
		return fmt.Sprintf("RobustScaler-HP(1-α=%.3g)", 1-p.cfg.Alpha)
	case RT:
		return fmt.Sprintf("RobustScaler-RT(d-µs=%.3g)", p.cfg.RTTarget)
	default:
		return fmt.Sprintf("RobustScaler-cost(budget=%.3g)", p.cfg.CostBudget)
	}
}

// Init implements sim.Autoscaler.
func (p *RobustScaler) Init(ctx *sim.Context) {
	p.cacheValid = false
	p.plan(ctx, ctx.Now())
}

// OnTick implements sim.Autoscaler.
func (p *RobustScaler) OnTick(ctx *sim.Context, now float64) {
	if p.cfg.PlanEveryArrivals > 0 {
		return // arrival-count cadence: ticks are ignored
	}
	// Fast path: nothing changed and the next creation is still beyond
	// this window.
	if p.cacheValid &&
		ctx.ArrivalsSeen() == p.lastArrivals &&
		ctx.AvailableCount() == p.lastAvail &&
		p.nextCreateAt > now+p.cfg.PlanWindow {
		return
	}
	p.plan(ctx, now)
}

// OnArrival implements sim.Autoscaler: an arrival consumed an instance, so
// the pipeline is one short. Algorithm 4 plans on arrival events; waiting
// for the next tick would delay the marginal (tightest) creation by up to
// Δ and erode the hit-probability guarantee.
func (p *RobustScaler) OnArrival(ctx *sim.Context, _ sim.Query) {
	if m := p.cfg.PlanEveryArrivals; m > 0 {
		p.arrivalsSincePlan++
		if p.arrivalsSincePlan < m {
			return
		}
		p.arrivalsSincePlan = 0
	}
	p.plan(ctx, ctx.Now())
}

// maxPerRound caps creations scheduled in one planning round (safety
// valve); minHorizonStep and maxHorizonStep clamp the Λ-inversion grid.
const (
	maxPerRound    = 1 << 17
	minHorizonStep = 0.05
	maxHorizonStep = 60
)

// horizonStep picks the Λ-inversion grid width: ~1 expected arrival per
// cell, clamped to [minHorizonStep, maxHorizonStep] seconds.
func (p *RobustScaler) horizonStep(now float64) float64 {
	rate := p.in.Rate(now)
	if rate <= 0 {
		return maxHorizonStep
	}
	return math.Min(math.Max(1/rate, minHorizonStep), maxHorizonStep)
}

// plan runs one round. Two commitments are combined, per Algorithm 4 and
// its Δ-window variant:
//
//   - depth: the next κ+1 upcoming queries must always have committed
//     creation times, however far in the future they fall — the κ
//     threshold (eq. 8) marks the queries that cannot reach the QoS
//     target if planned only when they become imminent. Without this,
//     sparse traffic starves: the (κ+1)-th arrival's creation time
//     recedes with the clock and is never scheduled in time.
//   - window: beyond that depth, schedule every creation that falls
//     inside [now, now+Δ] (the batch form used in the experiments).
func (p *RobustScaler) plan(ctx *sim.Context, now float64) {
	deadline := now + p.cfg.PlanWindow + p.cfg.WindowExtension
	h := decision.NewHorizon(p.in, now, p.horizonStep(now), 0)
	detTau, tauIsDet := p.cfg.Tau.(stats.Deterministic)
	minDepth := p.kappaNow(now) + 1
	if m := p.cfg.PlanEveryArrivals; m > 0 {
		// Literal Algorithm 4: commit the next κ+m creations, no window.
		minDepth = p.kappaNow(now) + m
		deadline = now
	}

	scheduled := 0
	i := ctx.AvailableCount() + 1
	nextAt := math.Inf(1)
	for scheduled < maxPerRound {
		x, ok := p.decideOne(h, now, i, detTau, tauIsDet)
		if !ok {
			// Intensity mass exhausted within the look-ahead: the i-th
			// arrival is effectively never coming; stop planning.
			break
		}
		if i > minDepth && x > deadline {
			nextAt = x
			break
		}
		ctx.Schedule(x)
		scheduled++
		i++
	}
	p.lastArrivals = ctx.ArrivalsSeen()
	p.lastAvail = ctx.AvailableCount()
	p.nextCreateAt = nextAt
	p.cacheValid = true
}

// kappaNow evaluates the κ threshold (eq. 8) at the local intensity, the
// paper's recommended choice over a global bound. The RT and cost variants
// have no hitting-probability parameter; their planning depth uses the
// median (α = 0.5), deep enough to keep the pipeline primed while the
// window criterion governs the rest.
func (p *RobustScaler) kappaNow(now float64) int {
	rate := p.in.Rate(now)
	if r2 := p.in.Rate(now + meanOf(p.cfg.Tau)); r2 > rate {
		rate = r2 // look one startup-time ahead so ramps are not missed
	}
	alpha := 0.5
	if p.cfg.Variant == HP {
		alpha = p.cfg.Alpha
	}
	mc := p.cfg.MCSamples
	if mc > 200 {
		mc = 200 // κ only needs a coarse estimate
	}
	return decision.Kappa(rate, p.cfg.Tau, alpha, p.rng, mc)
}

// meanOf estimates a distribution's central value from its median.
func meanOf(d stats.Dist) float64 { return d.Quantile(0.5) }

// decideOne returns the absolute creation time for the i-th upcoming query
// after now under the configured formulation.
func (p *RobustScaler) decideOne(h *decision.Horizon, now float64, i int, detTau stats.Deterministic, tauIsDet bool) (float64, bool) {
	if p.cfg.Variant == HP && tauIsDet {
		// Exact path: x = Λ⁻¹(Gamma_i⁻¹(α)) − τ, clamped to now.
		q, ok := h.QuantileArrival(i, p.cfg.Alpha)
		if !ok {
			return 0, false
		}
		x := q - detTau.Value
		if x < now {
			x = now
		}
		return x, true
	}
	r := p.cfg.MCSamples
	if cap(p.xiBuf) < r {
		p.xiBuf = make([]float64, r)
		p.tauBuf = make([]float64, r)
	}
	xi := p.xiBuf[:r]
	tau := p.tauBuf[:r]
	for k := 0; k < r; k++ {
		u, ok := h.SampleArrival(p.rng, i)
		if !ok {
			return 0, false
		}
		xi[k] = u - now // relative epochs
		tau[k] = p.cfg.Tau.Sample(p.rng)
	}
	var xRel float64
	switch p.cfg.Variant {
	case HP:
		xRel, _ = decision.SolveHP(xi, tau, p.cfg.Alpha)
	case RT:
		xRel = decision.SolveRT(xi, tau, p.cfg.RTTarget)
	case Cost:
		xRel = decision.SolveCost(xi, tau, p.cfg.CostBudget)
	}
	if xRel < 0 {
		xRel = 0
	}
	return now + xRel, true
}
