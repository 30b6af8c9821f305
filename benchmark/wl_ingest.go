package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// ingest_durable: closed loop, 2 clients × 32 workloads, 256-event
// binary batches against -wal-fsync always. See README.md for why.
const (
	durableClients      = 2
	durablePerClient    = 32
	durableBatch        = 256
	durableHistory      = 600.0 // scalerd -history, seconds
	durableRate         = 16.0  // events per second of workload time: 9 600 retained per workload
	durableAuditEvery   = 16    // every n-th batch is followed by a status audit
	durableSnapshots    = 6     // checkpoint/truncate cycles per measured window
	durableStallHorizon = 100 * time.Millisecond
)

// durableStream is one workload's seeded event stream and the harness's
// own copy of what scalerd must be retaining for it.
type durableStream struct {
	id    string
	rng   *rand.Rand
	clock float64
	// hist is the acknowledged history trimmed by the engine's rule: after
	// each batch, events older than the newest minus the window go.
	hist []float64
}

func (d *durableStream) next(n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		d.clock += d.rng.ExpFloat64() / durableRate
		ts[i] = d.clock
	}
	return ts
}

func (d *durableStream) acked(ts []float64) {
	d.hist = append(d.hist, ts...)
	cut := d.hist[len(d.hist)-1] - durableHistory
	if i := sort.SearchFloat64s(d.hist, cut); i > 0 {
		d.hist = d.hist[i:]
	}
	if cap(d.hist) > 4*len(d.hist)+4096 {
		d.hist = append([]float64(nil), d.hist...)
	}
}

type statusBody struct {
	Arrivals int `json:"arrivals_recorded"`
}

func runIngestDurable(rc *runConfig) (*result, *recorder, error) {
	res := newResult()

	// Inputs: per workload, one full history window to seed with, then an
	// endless stream of batches.
	streams := make([][]*durableStream, durableClients)
	seedReqs := make([][][]byte, durableClients)
	seedBatches := make([][][]float64, durableClients)
	for c := range streams {
		for w := 0; w < durablePerClient; w++ {
			id := fmt.Sprintf("dur-%d-%02d", c, w)
			d := &durableStream{id: id, rng: newRand(rc.seed*1000003 + int64(c*durablePerClient+w)), clock: epoch0}
			first := d.next(int(durableHistory * durableRate))
			streams[c] = append(streams[c], d)
			seedBatches[c] = append(seedBatches[c], first)
			seedReqs[c] = append(seedReqs[c], ingestBinary(id, first))
		}
	}
	var ackedEvents int64 // events scalerd has acknowledged since its boot

	s, setupS, err := repeatSetup(func(i int) (*scalerd, error) {
		dir, err := rc.dataDir(fmt.Sprintf("data-%d", i))
		if err != nil {
			return nil, err
		}
		s, err := startScalerd(rc.bin, dir+".log",
			"-data-dir", dir, "-wal-fsync", "always", "-history", ftoa(durableHistory),
			"-retrain-every", "0", "-autoscale-every", "0", "-snapshot-every", "0")
		if err != nil {
			return nil, err
		}
		err = onLanes(s, durableClients, func(c int, l *lane) error {
			for _, req := range seedReqs[c] {
				if _, err := l.mustOK(req, "seeding history"); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			s.kill()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, nil, err
	}
	defer s.kill()
	res.set(mSetupS, "s", setupS)
	for c := range streams {
		for w, d := range streams[c] {
			d.acked(seedBatches[c][w])
			ackedEvents += int64(len(seedBatches[c][w]))
		}
	}
	seedReqs, seedBatches = nil, nil

	lanes, closeLanes, err := dialLanes(s, durableClients)
	if err != nil {
		return nil, nil, err
	}
	defer closeLanes()

	// A smoke run's window is too short for the full set of snapshots.
	cycles := durableSnapshots
	if rc.seconds < durableSnapshots {
		cycles = max(1, int(rc.seconds))
	}

	// One closed-loop client: round-robin over its own workloads, a status
	// audit after every durableAuditEvery-th batch, and (client 0 only) a
	// snapshot on a fixed cadence.
	type clientOut struct {
		rec        recorder
		events     int64
		afterSnap  []float64 // ingest acks landing right after a snapshot trigger, ms
		snapshotsN int
	}
	client := func(c int, until time.Time, snapEvery time.Duration, out *clientOut) {
		l := lanes[c]
		nextSnap := time.Now().Add(snapEvery)
		var stallUntil time.Time
		for n := 0; time.Now().Before(until); n++ {
			d := streams[c][n%durablePerClient]
			ts := d.next(durableBatch)
			req := ingestBinary(d.id, ts)
			start := time.Now()
			if _, ok := out.rec.timed(l, opIngest, start, req, "ingest "+d.id); ok {
				d.acked(ts)
				out.events += int64(len(ts))
				if start.Before(stallUntil) {
					lat := out.rec.lat[opIngest]
					out.afterSnap = append(out.afterSnap, lat[len(lat)-1])
				}
			}
			if n%durableAuditEvery == durableAuditEvery-1 {
				body, ok := out.rec.timed(l, opQuery, time.Now(), getRequest("/v1/workloads/"+d.id+"/status"), "status "+d.id)
				var st statusBody
				if ok && (json.Unmarshal(body, &st) != nil || st.Arrivals != len(d.hist)) {
					out.rec.fail("live audit %s: scalerd retains %d arrivals, the harness acked %d in the window", d.id, st.Arrivals, len(d.hist))
				}
			}
			if c == 0 && snapEvery > 0 && out.snapshotsN < cycles && time.Now().After(nextSnap) {
				nextSnap = nextSnap.Add(snapEvery)
				if _, ok := out.rec.timed(l, opSnapshot, time.Now(), postRequest("/v1/admin/snapshot", "", nil), "snapshot"); ok {
					out.snapshotsN++
				}
				stallUntil = time.Now().Add(durableStallHorizon)
			}
		}
	}
	phase := func(d time.Duration, snapEvery time.Duration) []*clientOut {
		outs := make([]*clientOut, durableClients)
		until := time.Now().Add(d)
		_ = inParallel(durableClients, func(c int) error {
			outs[c] = &clientOut{}
			client(c, until, snapEvery, outs[c])
			return nil
		})
		return outs
	}

	warm := phase(rc.warmup(), 0)
	win, err := beginWindow(s)
	if err != nil {
		return nil, nil, err
	}
	measured := phase(rc.window(), rc.window()/time.Duration(cycles+1))
	rec := &recorder{}
	var afterSnap []float64
	var windowEvents int64
	snapshots := 0
	for _, o := range measured {
		rec.merge(&o.rec)
		afterSnap = append(afterSnap, o.afterSnap...)
		windowEvents += o.events
		snapshots += o.snapshotsN
	}
	if err := win.finish(res, rec); err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(win.start).Seconds()
	ackedEvents += windowEvents
	for _, o := range warm {
		ackedEvents += o.events
		rec.absorbFailures(&o.rec)
	}
	if err := s.alive(); err != nil {
		return nil, nil, err
	}

	// Counts, scraped once after the window (they reset with the process).
	m, err := lanes[0].scrape()
	if err != nil {
		return nil, nil, err
	}
	if got := int64(sumSeries(m, "robustscaler_ingest_events_total")); got != ackedEvents {
		res.violation("robustscaler_ingest_events_total is %d, the harness was acked %d events", got, ackedEvents)
	}
	appends := sumSeries(m, "robustscaler_wal_appends_total")
	fsyncs := sumSeries(m, "robustscaler_wal_fsyncs_total")
	if snapshots != cycles {
		res.violation("%d snapshot cycles completed in the window, want %d", snapshots, cycles)
	}

	// kill -9, restart on the same directory, audit acked vs recovered.
	var lost, surplus int
	all := durableClients * durablePerClient
	restartS, err := repeatRestart(s, restartRepeats, listsWorkloads(s, all), func() error {
		l, err := dialLane(s.addr)
		if err != nil {
			return err
		}
		defer l.close()
		for c := range streams {
			for _, d := range streams[c] {
				body, err := l.mustOK(getRequest("/v1/workloads/"+d.id+"/status"), "recovery audit "+d.id)
				if err != nil {
					return err
				}
				var st statusBody
				if err := json.Unmarshal(body, &st); err != nil {
					return fmt.Errorf("recovery audit %s: %w", d.id, err)
				}
				if st.Arrivals < len(d.hist) {
					lost += len(d.hist) - st.Arrivals
				} else {
					surplus += st.Arrivals - len(d.hist)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if lost != 0 || surplus != 0 {
		res.violation("after kill -9: lost_acked_events=%d, unacked events recovered=%d (both must be 0)", lost, surplus)
	}
	res.set(mRestartS, "s", restartS)

	res.set(mIngestAckP50, "ms", median(rec.lat[opIngest]))
	res.set(mTailMs, "ms", rec.windowedTail(win.start, rc.window(), 0.99, opIngest))
	res.set(mQueryP50, "ms", median(rec.lat[opQuery]))
	res.absorb(rec)

	report(rc.out, "ingest_durable", res, rec, [][3]string{
		diag("ingest_events_per_s", float64(windowEvents)/elapsed, "events/s"),
		diag("ingest_ack_ms_p99", pct(rec.lat[opIngest], 0.99), "ms over the whole window (tail_ms is the median of 5 sub-windows' p99)"),
		diag("lost_acked_events", float64(lost), "count"),
		diag("wal.fsyncs_per_append", fsyncs/appends, "ratio (scraped)"),
		diag("store.snapshot_stall_ms_p99", pct(afterSnap, 0.99), fmt.Sprintf("ms (acks within %v of a snapshot, n=%d)", durableStallHorizon, len(afterSnap))),
		diag("snapshot cycles", float64(snapshots), "count"),
	})
	return res, rec, nil
}
