// Package scaler implements the autoscaling policies compared in the
// paper: the Backup Pool and Adaptive Backup Pool heuristics, and the
// RobustScaler-HP/-RT/-cost variants built on the NHPP forecast and the
// stochastically constrained decision solvers.
package scaler

import (
	"fmt"

	"robustscaler/internal/sim"
)

// BP is the Backup Pool heuristic: it keeps a pool of exactly B instances,
// replenishing immediately after each query consumes one. B = 0 is the
// pure reactive strategy (every query cold-starts).
type BP struct {
	B int
}

// Init implements sim.Autoscaler.
func (p *BP) Init(ctx *sim.Context) {
	for i := 0; i < p.B; i++ {
		ctx.Schedule(ctx.Now())
	}
}

// OnTick implements sim.Autoscaler.
func (p *BP) OnTick(*sim.Context, float64) {}

// OnArrival implements sim.Autoscaler: replenish the consumed instance.
func (p *BP) OnArrival(ctx *sim.Context, _ sim.Query) {
	if p.B > 0 {
		ctx.Schedule(ctx.Now())
	}
}

// String identifies the policy in experiment output.
func (p *BP) String() string { return fmt.Sprintf("BP(B=%d)", p.B) }

// AdapBP is the Adaptive Backup Pool heuristic: every ResizeInterval
// seconds the pool size target is reset to Factor × (average QPS over the
// trailing Window seconds), and arrivals replenish up to the current
// target.
type AdapBP struct {
	// Factor is the pre-fixed constant multiplying the QPS estimate.
	Factor float64
	// Window is the QPS estimation window in seconds (paper: 600).
	Window float64
	// ResizeInterval is how often the target is recomputed (paper: 600).
	ResizeInterval float64

	target     int
	lastResize float64
	started    bool
}

// NewAdapBP returns an AdapBP with the paper's 10-minute window and
// resize cadence.
func NewAdapBP(factor float64) *AdapBP {
	return &AdapBP{Factor: factor, Window: 600, ResizeInterval: 600}
}

// Init implements sim.Autoscaler.
func (p *AdapBP) Init(ctx *sim.Context) {
	p.target = 0
	p.lastResize = ctx.Now()
	p.started = true
}

// OnTick implements sim.Autoscaler: periodically retarget the pool.
func (p *AdapBP) OnTick(ctx *sim.Context, now float64) {
	if now-p.lastResize < p.ResizeInterval && now != p.lastResize {
		return
	}
	p.lastResize = now
	qps := ctx.RecentQPS(p.Window)
	p.target = int(p.Factor*qps + 0.5)
	ctx.Reconcile(p.target)
}

// OnArrival implements sim.Autoscaler: replenish toward the target.
func (p *AdapBP) OnArrival(ctx *sim.Context, _ sim.Query) {
	ctx.Reconcile(p.target)
}

// String identifies the policy in experiment output.
func (p *AdapBP) String() string { return fmt.Sprintf("AdapBP(c=%g)", p.Factor) }
