package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop charges a stall to everything that queued behind it: with
// a request due every 5 ms and the server asleep for 50 ms on one of
// them, the next requests are late by what was left of the stall when
// they were due — although each, once sent, is answered at once.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		every   = 5 * time.Millisecond
		stall   = 50 * time.Millisecond
		stallAt = 10
		ops     = 40
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok")) //nolint:errcheck // test stub
	}))
	defer srv.Close()
	l, err := dialLane(srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()

	schedule := make([]openOp, ops)
	for i := range schedule {
		schedule[i] = openOp{due: time.Duration(i) * every, class: opQuery, req: getRequest("/"), what: "stub"}
	}
	out := runOpenLane(l, time.Now().Add(2*time.Millisecond), schedule, 0)
	if out.rec.failed != 0 || len(out.rec.lat[opQuery]) != ops {
		t.Fatalf("failed=%d completed=%d: %v", out.rec.failed, len(out.rec.lat[opQuery]), out.rec.problems)
	}
	lat := out.rec.lat[opQuery] // ms, in issue order
	if lat[stallAt] < 45 {
		t.Errorf("the stalled request took %.1f ms, want about %v", lat[stallAt], stall)
	}
	// Request stallAt+k was due k·every into the stall.
	for k := 1; k <= 6; k++ {
		remaining := float64(stall-time.Duration(k)*every) / float64(time.Millisecond)
		if got := lat[stallAt+k]; got < remaining-3 {
			t.Errorf("request %d queued behind the stall took %.1f ms from its due time, want at least %.1f", stallAt+k, got, remaining-3)
		}
	}
	// Long after the backlog drained the lane is on schedule again.
	for i := ops - 10; i < ops; i++ {
		if lat[i] > 10 {
			t.Errorf("request %d, well after the stall, took %.1f ms", i, lat[i])
		}
	}
	// Generator lag is recorded only where the lane was idle beforehand:
	// the queued requests have none of their own.
	if len(out.lag) > ops-6 || len(out.lag) < ops/2 {
		t.Errorf("%d lag samples for %d requests of which at least 6 were queued", len(out.lag), ops)
	}
}

// sleepUntil must land within a fraction of a millisecond: time.Sleep
// does not on a small sandbox, and the lateness would be billed to the
// server.
func TestSleepUntilIsPrecise(t *testing.T) {
	var late []float64
	for i := 0; i < 50; i++ {
		due := time.Now().Add(3 * time.Millisecond)
		sleepUntil(due)
		late = append(late, float64(time.Since(due))/float64(time.Millisecond))
	}
	if m := median(late); m < 0 || m > 0.3 {
		t.Errorf("median wake-up lateness %.3f ms, want within [0, 0.3]", m)
	}
}
