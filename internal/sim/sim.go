// Package sim is the scaling-per-query substrate: a discrete-event
// simulator of the instance lifecycle dynamics in Algorithm 1 of the
// paper. Queries arrive according to a trace; an autoscaling policy
// schedules instance creations; each instance needs a random pending
// (startup) time before it can serve, serves exactly one query, and is
// deleted afterwards. The simulator records the QoS metrics (hit rate,
// response times) and the resource cost (instance lifecycle lengths) the
// paper's evaluation reports.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"robustscaler/internal/stats"
)

// Query is one unit of work: an arrival epoch and a service (processing)
// duration in seconds.
type Query struct {
	Arrival float64
	Service float64
}

// Arrivals projects the queries' arrival epochs — the form the model
// side (binning, engine ingest) consumes.
func Arrivals(qs []Query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = q.Arrival
	}
	return out
}

// Autoscaler is the policy interface. The simulator calls Init once,
// OnTick on every planning boundary (Config.TickInterval), and OnArrival
// after each query has been matched to an instance.
type Autoscaler interface {
	// Init is called once before the first event.
	Init(ctx *Context)
	// OnTick is called at each planning boundary with the tick time.
	OnTick(ctx *Context, now float64)
	// OnArrival is called after each arrival is served, e.g. to replenish
	// a pool.
	OnArrival(ctx *Context, q Query)
}

// Config controls one simulation run.
type Config struct {
	// Start and End bound the simulated time range; queries outside are
	// ignored.
	Start, End float64
	// PendingDist draws instance startup times τ.
	PendingDist stats.Dist
	// MeanPending µτ and MeanService µs are the fixed-cost constants used
	// for the reactive-baseline cost (relative cost denominator).
	MeanPending float64
	MeanService float64
	// TickInterval Δ is the planning period in seconds; 0 disables ticks.
	TickInterval float64
	// Seed drives the pending-time draws.
	Seed int64
	// MeasureDecisionLatency switches on the "real environment" model of
	// Table IV: creations requested during OnTick only take effect after
	// the measured wall-clock duration of the callback plus
	// ActuationLatency.
	MeasureDecisionLatency bool
	// ActuationLatency is an extra fixed delay (seconds) applied to
	// creations when MeasureDecisionLatency is on.
	ActuationLatency float64
}

// instance states.
const (
	stScheduled = iota // creation planned in the future
	stLive             // created; ready at readyAt (pending until then, idle after)
	stBusy             // serving a query
	stGone             // deleted or cancelled
)

type instance struct {
	id        int
	state     int
	createAt  float64 // scheduled creation time
	createdAt float64 // actual creation time
	readyAt   float64 // createdAt + τ
}

// liveHeap orders created instances by creation time: Algorithm 1 pairs
// the i-th query with the i-th instance, so queries consume instances in
// creation order (not readiness order — with random pending times these
// differ, and creation order is what the paper's per-query analysis
// assumes).
type liveHeap []*instance

func (h liveHeap) Len() int { return len(h) }
func (h liveHeap) Less(i, j int) bool {
	if h[i].createdAt != h[j].createdAt {
		return h[i].createdAt < h[j].createdAt
	}
	return h[i].id < h[j].id
}
func (h liveHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *liveHeap) Push(x interface{}) { *h = append(*h, x.(*instance)) }
func (h *liveHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// schedHeap orders scheduled creations by creation time.
type schedHeap []*instance

func (h schedHeap) Len() int            { return len(h) }
func (h schedHeap) Less(i, j int) bool  { return h[i].createAt < h[j].createAt }
func (h schedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *schedHeap) Push(x interface{}) { *h = append(*h, x.(*instance)) }
func (h *schedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Context is the policy's view of the simulation. All mutation goes
// through it so the simulator can keep cost accounting consistent.
type Context struct {
	cfg Config
	rng *rand.Rand

	now       float64
	nextID    int
	scheduled schedHeap
	live      liveHeap

	totalCost    float64
	arrivals     []float64 // arrival times seen so far (for RecentQPS)
	arrivalsSeen int

	// Pending creations requested inside the current OnTick when latency
	// measurement is on.
	inTick       bool
	tickRequests []float64

	res *Result
}

// Now returns the current simulation time.
func (c *Context) Now() float64 { return c.now }

// Rand returns the simulation RNG (shared with pending-time draws).
func (c *Context) Rand() *rand.Rand { return c.rng }

// ArrivalsSeen returns how many queries have arrived so far.
func (c *Context) ArrivalsSeen() int { return c.arrivalsSeen }

// LiveCount returns the number of created, not-yet-consumed instances
// (pending or idle).
func (c *Context) LiveCount() int { return len(c.live) }

// ScheduledCount returns the number of future scheduled creations.
func (c *Context) ScheduledCount() int { return len(c.scheduled) }

// AvailableCount returns LiveCount + ScheduledCount: the instances already
// committed to the next arrivals.
func (c *Context) AvailableCount() int { return len(c.live) + len(c.scheduled) }

// RecentQPS returns the average arrival rate over the trailing window
// (seconds), the signal AdapBP resizes on.
func (c *Context) RecentQPS(window float64) float64 {
	if window <= 0 {
		panic(fmt.Sprintf("sim: RecentQPS window %g <= 0", window))
	}
	cut := c.now - window
	n := 0
	for i := len(c.arrivals) - 1; i >= 0 && c.arrivals[i] >= cut; i-- {
		n++
	}
	return float64(n) / window
}

// Schedule plans an instance creation at time at (clamped to now). During
// a latency-measured tick the request is buffered and shifted by the
// measured decision latency afterwards.
func (c *Context) Schedule(at float64) {
	if at < c.now {
		at = c.now
	}
	if c.inTick && c.cfg.MeasureDecisionLatency {
		c.tickRequests = append(c.tickRequests, at)
		return
	}
	c.scheduleAt(at)
}

func (c *Context) scheduleAt(at float64) {
	inst := &instance{id: c.nextID, state: stScheduled, createAt: at}
	c.nextID++
	heap.Push(&c.scheduled, inst)
}

// CancelScheduled cancels up to n future scheduled creations (latest
// first), returning how many were cancelled. Cancelled creations cost
// nothing.
func (c *Context) CancelScheduled(n int) int {
	cancelled := 0
	for cancelled < n && len(c.scheduled) > 0 {
		// Find and remove the latest-scheduled entry.
		latest := 0
		for i := 1; i < len(c.scheduled); i++ {
			if c.scheduled[i].createAt > c.scheduled[latest].createAt {
				latest = i
			}
		}
		c.scheduled[latest].state = stGone
		heap.Remove(&c.scheduled, latest)
		cancelled++
	}
	return cancelled
}

// DeleteIdle deletes up to n created instances (pending or idle),
// preferring the least-ready ones, accounting their lifecycle cost up to
// now. It returns how many were deleted. AdapBP uses this to shrink its
// pool.
func (c *Context) DeleteIdle(n int) int {
	deleted := 0
	for deleted < n && len(c.live) > 0 {
		// Remove the instance that became (or becomes) ready last.
		latest := 0
		for i := 1; i < len(c.live); i++ {
			if c.live[i].readyAt > c.live[latest].readyAt {
				latest = i
			}
		}
		inst := c.live[latest]
		heap.Remove(&c.live, latest)
		c.retire(inst, c.now)
		deleted++
	}
	return deleted
}

// Reconcile brings the committed pool (AvailableCount) to target, the
// actuation step of every pool-model policy: short, it schedules the
// difference now; over, it cancels scheduled creations first (they cost
// nothing yet) and deletes created instances for the rest.
func (c *Context) Reconcile(target int) {
	have := c.AvailableCount()
	for i := have; i < target; i++ {
		c.Schedule(c.now)
	}
	if excess := have - target; excess > 0 {
		if excess -= c.CancelScheduled(excess); excess > 0 {
			c.DeleteIdle(excess)
		}
	}
}

// retire accounts an instance's lifecycle cost [createdAt, until].
func (c *Context) retire(inst *instance, until float64) {
	inst.state = stGone
	cost := until - inst.createdAt
	if cost < 0 {
		cost = 0
	}
	c.totalCost += cost
	c.res.InstancesCreated++
}

// materialize turns scheduled creations with createAt ≤ t into live
// instances, drawing their pending times.
func (c *Context) materialize(t float64) {
	for len(c.scheduled) > 0 && c.scheduled[0].createAt <= t {
		inst := heap.Pop(&c.scheduled).(*instance)
		inst.state = stLive
		inst.createdAt = inst.createAt
		inst.readyAt = inst.createdAt + c.cfg.PendingDist.Sample(c.rng)
		heap.Push(&c.live, inst)
	}
}

// Result aggregates the per-run metrics the paper reports.
type Result struct {
	NumQueries       int
	InstancesCreated int

	Hits  []bool    // per query: instance ready upon arrival
	RTs   []float64 // per query: response time (wait + service)
	Waits []float64 // per query: wait before processing starts

	TotalCost    float64 // Σ instance lifecycle lengths, seconds
	BaselineCost float64 // cost of pure reactive BP(0) on the same trace
	WallTime     time.Duration
}

// HitRate returns the fraction of hit queries.
func (r *Result) HitRate() float64 {
	if r.NumQueries == 0 {
		return 0
	}
	n := 0
	for _, h := range r.Hits {
		if h {
			n++
		}
	}
	return float64(n) / float64(r.NumQueries)
}

// RTAvg returns the mean response time.
func (r *Result) RTAvg() float64 { return stats.Mean(r.RTs) }

// RTQuantile returns the p-quantile of response times.
func (r *Result) RTQuantile(p float64) float64 { return stats.Quantile(r.RTs, p) }

// RelativeCost returns TotalCost / BaselineCost (the paper's
// relative_cost metric, normalized to the pure reactive strategy).
func (r *Result) RelativeCost() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return r.TotalCost / r.BaselineCost
}

// CostPerQuery returns the average instance lifecycle length.
func (r *Result) CostPerQuery() float64 {
	if r.NumQueries == 0 {
		return 0
	}
	return r.TotalCost / float64(r.NumQueries)
}

// IdleCostPerQuery returns the average cost net of the irreducible
// pending+service time — the quantity RobustScaler-cost budgets.
func (r *Result) IdleCostPerQuery(meanPending float64) float64 {
	if r.NumQueries == 0 {
		return 0
	}
	var svc float64
	for _, rt := range r.RTs {
		svc += rt
	}
	for _, w := range r.Waits {
		svc -= w
	}
	// svc is now Σ service times.
	return (r.TotalCost - svc - float64(r.NumQueries)*meanPending) / float64(r.NumQueries)
}

// HitRateWindowStats returns the mean and variance of the hit indicator
// averaged over consecutive windows of w queries (the Fig. 5
// construction).
func (r *Result) HitRateWindowStats(w int) (mean, variance float64) {
	vals := make([]float64, len(r.Hits))
	for i, h := range r.Hits {
		if h {
			vals[i] = 1
		}
	}
	wm := stats.WindowedMeans(vals, w)
	return stats.Mean(wm), stats.Variance(wm)
}

// RTWindowStats returns the mean and variance of window-averaged response
// times (Fig. 5).
func (r *Result) RTWindowStats(w int) (mean, variance float64) {
	wm := stats.WindowedMeans(r.RTs, w)
	return stats.Mean(wm), stats.Variance(wm)
}

// Run replays the queries under the policy and returns the metrics.
// Queries must be sorted by arrival time.
func Run(queries []Query, policy Autoscaler, cfg Config) (*Result, error) {
	if cfg.PendingDist == nil {
		return nil, fmt.Errorf("sim: Config.PendingDist is required")
	}
	if cfg.End <= cfg.Start {
		return nil, fmt.Errorf("sim: invalid range [%g, %g)", cfg.Start, cfg.End)
	}
	for i := 1; i < len(queries); i++ {
		if queries[i].Arrival < queries[i-1].Arrival {
			return nil, fmt.Errorf("sim: queries not sorted at index %d", i)
		}
	}
	res := &Result{}
	ctx := &Context{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		now: cfg.Start,
		res: res,
	}
	wallStart := time.Now()
	policy.Init(ctx)

	nextTick := cfg.Start
	hasTicks := cfg.TickInterval > 0

	runTick := func(at float64) {
		ctx.now = at
		ctx.materialize(at)
		if cfg.MeasureDecisionLatency {
			ctx.inTick = true
			ctx.tickRequests = ctx.tickRequests[:0]
			t0 := time.Now()
			policy.OnTick(ctx, at)
			latency := time.Since(t0).Seconds() + cfg.ActuationLatency
			ctx.inTick = false
			for _, reqAt := range ctx.tickRequests {
				eff := reqAt
				if eff < at+latency {
					eff = at + latency
				}
				ctx.scheduleAt(eff)
			}
		} else {
			policy.OnTick(ctx, at)
		}
	}

	for qi := range queries {
		q := queries[qi]
		if q.Arrival < cfg.Start || q.Arrival >= cfg.End {
			continue
		}
		// Run all planning ticks up to the arrival.
		for hasTicks && nextTick <= q.Arrival {
			runTick(nextTick)
			nextTick += cfg.TickInterval
		}
		ctx.now = q.Arrival
		ctx.materialize(q.Arrival)
		ctx.arrivals = append(ctx.arrivals, q.Arrival)
		ctx.arrivalsSeen++

		// Match the query to an instance per Algorithm 1.
		var inst *instance
		if len(ctx.live) > 0 {
			inst = heap.Pop(&ctx.live).(*instance)
		} else {
			// No created instance: cancel one future scheduled creation
			// (the paper's "originally scheduled creation is canceled")
			// and cold-start now.
			if len(ctx.scheduled) > 0 {
				ctx.CancelScheduled(1)
			}
			inst = &instance{id: ctx.nextID, state: stLive, createAt: q.Arrival,
				createdAt: q.Arrival}
			ctx.nextID++
			inst.readyAt = q.Arrival + cfg.PendingDist.Sample(ctx.rng)
		}
		hit := inst.readyAt <= q.Arrival
		wait := inst.readyAt - q.Arrival
		if wait < 0 {
			wait = 0
		}
		finish := q.Arrival + wait + q.Service
		inst.state = stBusy
		ctx.retire(inst, finish)

		res.NumQueries++
		res.Hits = append(res.Hits, hit)
		res.Waits = append(res.Waits, wait)
		res.RTs = append(res.RTs, wait+q.Service)
		res.BaselineCost += cfg.MeanPending + q.Service

		policy.OnArrival(ctx, q)
	}
	// Drain remaining ticks so trailing instances are planned/materialized
	// consistently, then account leftovers up to the end of the horizon.
	for hasTicks && nextTick < cfg.End {
		runTick(nextTick)
		nextTick += cfg.TickInterval
	}
	ctx.now = cfg.End
	ctx.materialize(cfg.End)
	for len(ctx.live) > 0 {
		inst := heap.Pop(&ctx.live).(*instance)
		ctx.retire(inst, cfg.End)
	}
	res.TotalCost = ctx.totalCost
	res.WallTime = time.Since(wallStart)
	return res, nil
}
