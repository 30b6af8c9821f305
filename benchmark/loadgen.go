package main

import (
	"sort"
	"syscall"
	"time"
)

// openOp is one request of an open-loop schedule: due at a fixed offset
// from the lane's start whatever happened to the requests before it.
type openOp struct {
	due   time.Duration
	class opClass
	req   []byte
	what  string
	// after runs on the lane's goroutine once the op succeeded (tallies).
	after func()
}

// sortOps orders a schedule by due time, keeping the build order of ops
// due at the same instant.
func sortOps(ops []openOp) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
}

// spinWindow is the last stretch before a due time that sleepUntil
// spends polling the clock instead of sleeping.
const spinWindow = 60 * time.Microsecond

// sleepUntil returns at t, to within a few microseconds. time.Sleep
// cannot: the Go runtime parks on epoll with millisecond timeouts, which
// on a 2-core sandbox wakes a median 0.5 ms late — more than most
// requests here take, and all of it would be billed to the server since
// latency is counted from the due time. A nanosleep on the thread itself
// rides a high-resolution timer.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // interrupted or not, the loop re-reads the clock
		}
	}
}

// openLane is what one open-loop lane measured.
type openLane struct {
	rec recorder
	// lag is, for every op the lane was idle before, how late the
	// generator itself woke up for it, ms. An op that had to queue behind
	// its predecessor has no generator lag of its own: that wait is the
	// server's, and its latency already carries it.
	lag []float64
}

// runOpenLane issues ops on the lane in due order, one at a time. Each
// op is timed from its due time, not from when it could be sent, so a
// stall is charged to every request that queued behind it. Ops due
// before measureFrom are the warm-up: issued, checked, not timed.
func runOpenLane(l *lane, start time.Time, ops []openOp, measureFrom time.Duration) *openLane {
	out := &openLane{}
	var warm recorder
	for i := range ops {
		op := &ops[i]
		due := start.Add(op.due)
		idle := time.Until(due) > 0
		sleepUntil(due)
		rec := &out.rec
		if op.due < measureFrom {
			rec = &warm
		} else if idle {
			out.lag = append(out.lag, float64(time.Since(due))/float64(time.Millisecond))
		}
		if _, ok := rec.timed(l, op.class, due, op.req, op.what); ok && op.after != nil {
			op.after()
		}
	}
	out.rec.absorbFailures(&warm)
	return out
}
