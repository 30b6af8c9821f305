package main

import (
	"math"
	"sort"

	"robustscaler/internal/engine"
	"robustscaler/internal/sim"
	"robustscaler/internal/stats"
)

// qosScore pools the replay of plans and forecasts against the trace
// that followed them. Same definitions as CLOSEDLOOP.json: hit_rate is
// the share of queries that found an instance ready, relative_cost the
// instance-seconds spent over those of the purely reactive policy.
// forecast_wape is Σ|forecast − realised count| / Σ realised count over
// the forecast bins.
type qosScore struct {
	queries, hits       int
	cost, baseline      float64
	absErr, actualCount float64
}

func (q *qosScore) hitRate() float64      { return float64(q.hits) / float64(q.queries) }
func (q *qosScore) relativeCost() float64 { return q.cost / q.baseline }
func (q *qosScore) wape() float64         { return q.absErr / q.actualCount }

// qosReplay is one workload's plans and forecasts and the queries that
// then arrived over [from, to). plans[k] was anchored at from+k·replan.
type qosReplay struct {
	queries   []sim.Query // sorted by arrival, all within [from, to)
	from, to  float64
	replan    float64
	plans     []engine.Plan
	forecasts [][]engine.ForecastPoint
	step      float64 // the forecasts' bin width, seconds
	pending   float64
	service   float64 // mean service time, for the reactive baseline
	seed      int64
}

// planReplay is the controller the plans are scored under: at every
// replan boundary it drops what the previous plan still had scheduled
// and schedules the fresh plan's creations — the one for the i-th
// upcoming query only if i exceeds the instances already waiting.
type planReplay struct {
	start, every float64
	plans        []engine.Plan
}

func (p *planReplay) Init(*sim.Context) {}

func (p *planReplay) OnArrival(*sim.Context, sim.Query) {}

func (p *planReplay) OnTick(ctx *sim.Context, now float64) {
	k := int(math.Round((now - p.start) / p.every))
	if k < 0 || k >= len(p.plans) {
		return
	}
	ctx.CancelScheduled(ctx.ScheduledCount())
	have := ctx.LiveCount()
	for _, e := range p.plans[k].Plan {
		if e.QueryIndex > have {
			ctx.Schedule(e.CreateAt)
		}
	}
}

// arrivalsBetween counts queries with from ≤ arrival < to.
func arrivalsBetween(qs []sim.Query, from, to float64) int {
	at := func(t float64) int { return sort.Search(len(qs), func(i int) bool { return qs[i].Arrival >= t }) }
	return at(to) - at(from)
}

func (q *qosScore) add(r qosReplay) error {
	for _, pts := range r.forecasts {
		for _, pt := range pts {
			actual := float64(arrivalsBetween(r.queries, pt.T, pt.T+r.step))
			q.absErr += math.Abs(pt.QPS*r.step - actual)
			q.actualCount += actual
		}
	}
	out, err := sim.Run(r.queries, &planReplay{start: r.from, every: r.replan, plans: r.plans}, sim.Config{
		Start: r.from, End: r.to,
		PendingDist: stats.Deterministic{Value: r.pending},
		MeanPending: r.pending, MeanService: r.service,
		TickInterval: r.replan, Seed: r.seed,
	})
	if err != nil {
		return err
	}
	q.queries += out.NumQueries
	for _, h := range out.Hits {
		if h {
			q.hits++
		}
	}
	q.cost += out.TotalCost
	q.baseline += out.BaselineCost
	return nil
}
