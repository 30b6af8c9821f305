// Command scalerd runs the RobustScaler HTTP control plane: one process
// serving any number of independent workloads, each with its own arrival
// history, NHPP model, scaling plans and per-workload configuration,
// plus a background worker pool that keeps every model fresh (the
// paper's low-frequency retraining, scaled out to a fleet of
// workloads).
//
// Endpoints (per workload; see internal/server for the full list):
//
//	POST   /v1/workloads/{id}/arrivals  {"timestamps": [t1, ...]}  record arrivals
//	                                    (also application/x-ndjson — one epoch per
//	                                    line — or application/octet-stream —
//	                                    little-endian float64s — optionally with
//	                                    Content-Encoding: gzip; all formats stream,
//	                                    and bodies are capped by -max-ingest-bytes)
//	POST   /v1/workloads/{id}/train                                (re)fit the NHPP model
//	GET    /v1/workloads/{id}/plan?variant=hp&target=0.9           upcoming creation times
//	GET    /v1/workloads/{id}/forecast?from=&to=&step=             predicted intensity
//	GET    /v1/workloads/{id}/recommendation                       replica recommendation (HPA-style)
//	GET    /v1/workloads/{id}/status                               model/ingestion state
//	GET    /v1/workloads/{id}/stats                                per-workload counters (JSON)
//	GET    /v1/workloads/{id}/config                               per-workload config
//	PUT    /v1/workloads/{id}/config                               update per-workload config
//	GET    /v1/workloads                                           list workloads
//	PUT    /v1/admin/config             {"glob": "...", "config": {...}}  bulk config update
//	POST   /v1/admin/snapshot                                      persist all workloads now
//	GET    /v1/admin/generations                                   list retained snapshot generations
//	POST   /v1/admin/restore-generation {"generation": N}          point-in-time restore
//	GET    /metrics                                                Prometheus exposition (whole fleet)
//	GET    /healthz                                                health; 503 "degraded" while
//	                                                               snapshots fail consecutively, 200
//	                                                               "degraded" after a lossy boot
//
// With -fleet-nodes N (N > 1), scalerd runs N shared-nothing nodes in
// one process behind a consistent-hash router (internal/fleet): each
// node owns a slice of the workload space — its own registry, snapshot
// store under <data-dir>/nK and write-ahead log — per-workload routes
// are forwarded to the owning node, fleet-wide routes (/metrics,
// /healthz, /v1/workloads, PUT /v1/admin/config, snapshots) are
// scatter-gathered, and two admin routes appear: GET /v1/admin/fleet
// (topology: members, ring shares, pins, placement) and POST
// /v1/admin/migrate {"workload": "...", "to": "nK"} (live migration —
// snapshot handoff plus WAL-tail catch-up; ingest pauses only for the
// tail). Every member's full surface stays reachable under
// /v1/nodes/{node}/; point-in-time restore is per-node there. The
// default -fleet-nodes 1 serves the single node's handler directly —
// exactly the surface scalerd has always had.
//
// The engine flags below (-dt, -pending, -history, -mc) are fleet
// defaults: they seed the configuration each new workload starts from,
// and every knob except the worker pools can then be tuned per
// workload at runtime via PUT /v1/workloads/{id}/config — including a
// per-workload retrain cadence (retrain_every), which rate-limits the
// sweep that -retrain-every schedules process-wide.
//
// With -data-dir set, scalerd is restart-safe: each workload's arrival
// history, fitted model and config are persisted as one file per
// workload under a CRC-checked manifest (atomically, every
// -snapshot-every seconds and on POST /v1/admin/snapshot) and restored
// on boot before serving, so a deploy causes no cold-start forecasting
// gap. Snapshots are incremental — a tick rewrites only workloads that
// changed since the last one, and the last -snapshot-retain committed
// generations stay on disk for point-in-time restore (over HTTP, or
// -restore-generation at boot). A data dir holding a pre-v2 monolithic
// snapshot is migrated in place on the first snapshot tick. A workload
// file that fails its checksum or won't parse is quarantined (moved
// under quarantine/, reported via /healthz) and the rest of the fleet
// boots; a corrupt manifest still fails the boot loudly.
//
// Between snapshots, every acknowledged ingest batch is appended to a
// per-workload write-ahead log under the data dir's wal/ before the
// HTTP 200 goes out, so a crash — even kill -9 — loses no acknowledged
// arrivals: boot replays each workload's log on top of its snapshot,
// truncating at the first torn or corrupt record. -wal-fsync picks the
// durability/latency trade-off: "always" fsyncs every append (no
// acknowledged write is ever lost), "interval" batches fsyncs on a
// -wal-fsync-interval cadence (a crash can lose at most the last
// interval; the default), "off" leaves flushing to the OS. Each
// successful snapshot truncates the logs it made redundant.
//
// On SIGTERM or SIGINT scalerd shuts down gracefully: it stops
// accepting connections, drains in-flight requests, then closes every
// node — stopping its background loops and (with -data-dir) writing a
// final snapshot before exiting.
//
// Example:
//
//	scalerd -listen :8080 -pending 13 -dt 60 -retrain-every 1800 -retrain-workers 4 \
//	        -data-dir /var/lib/scalerd -snapshot-every 300 -fleet-nodes 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"robustscaler/internal/fleet"
	"robustscaler/internal/server"
	"robustscaler/internal/wal"
)

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before closing their connections anyway.
const shutdownGrace = 15 * time.Second

func main() {
	var (
		listen         = flag.String("listen", ":8080", "HTTP listen address")
		pending        = flag.Float64("pending", 13, "default instance pending time τ seconds (per-workload override: PUT /config)")
		dt             = flag.Float64("dt", 60, "default modeling bin width seconds (per-workload override: PUT /config)")
		history        = flag.Float64("history", 28*86400, "default retained arrival history seconds (per-workload override: PUT /config)")
		mc             = flag.Int("mc", 1000, "accepted for compatibility and ignored: rt/cost plans are solved exactly (per-workload mc_samples via PUT /config, likewise ignored)")
		maxIngest      = flag.Int64("max-ingest-bytes", server.DefaultMaxIngestBytes, "max arrivals body size in bytes, before and after decompression (413 beyond it; 0 disables)")
		retrainEvery   = flag.Float64("retrain-every", 1800, "background retrain sweep period seconds (0 disables); per-workload cadence via PUT /config retrain_every")
		retrainWorkers = flag.Int("retrain-workers", 4, "background retraining worker pool size (per node)")
		autoscaleEvery = flag.Float64("autoscale-every", 15, "background autoscale actuation sweep period seconds (0 disables); workloads opt in via PUT /config autoscale.enabled, each at its own autoscale.interval_seconds")
		actuator       = flag.String("actuator", "dryrun", "autoscale actuation backend: dryrun (record decisions, act on nothing) or sim (in-process simulated cluster)")
		dataDir        = flag.String("data-dir", "", "directory for workload snapshots; empty disables persistence")
		snapshotEvery  = flag.Float64("snapshot-every", 300, "background snapshot period seconds (0 disables; needs -data-dir)")
		snapshotRetain = flag.Int("snapshot-retain", 5, "committed snapshot generations kept for point-in-time restore (min 1)")
		restoreGen     = flag.Uint64("restore-generation", 0, "boot from this retained snapshot generation instead of the current one (0 = current; needs -data-dir; single-node only — per node via /v1/nodes/{node}/ in fleet mode)")
		walFsync       = flag.String("wal-fsync", "interval", "write-ahead log fsync policy: always (every append), interval (batched), off; per-workload override via PUT /config wal.fsync")
		walFsyncEvery  = flag.Float64("wal-fsync-interval", 0.1, "fsync cadence seconds for -wal-fsync=interval")
		walSegment     = flag.Int64("wal-segment-bytes", wal.DefaultSegmentBytes, "write-ahead log segment rotation size in bytes")
		staleThreshold = flag.Float64("staleness-threshold", 3600, "seconds a workload may carry unmodeled traffic before it counts into robustscaler_workloads_stale_over_threshold (0 disables)")
		fleetNodes     = flag.Int("fleet-nodes", 1, "shared-nothing nodes in this process behind the consistent-hash router (1 = classic single-node surface)")
		fleetVnodes    = flag.Int("fleet-vnodes", 0, "virtual nodes per member on the hash ring (0 = default; same value required across restarts)")
		fleetSeed      = flag.Uint64("fleet-seed", 0, "hash ring placement seed (same value required across restarts)")
	)
	flag.Parse()
	snapshotEverySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "snapshot-every" {
			snapshotEverySet = true
		}
	})

	// Flag validation, before any node boots.
	cfg := server.DefaultConfig()
	cfg.Pending = *pending
	cfg.Dt = *dt
	cfg.HistoryWindow = *history
	cfg.MCSamples = *mc
	if *maxIngest < 0 {
		log.Fatalf("-max-ingest-bytes %d invalid (bytes; 0 disables)", *maxIngest)
	}
	if math.IsNaN(*retrainEvery) || *retrainEvery < 0 {
		log.Fatalf("-retrain-every %g invalid (seconds; 0 disables)", *retrainEvery)
	}
	var retrainPeriod time.Duration
	if *retrainEvery > 0 {
		// Validate the converted duration: a huge value overflows
		// float→Duration to a negative period, a sub-nanosecond one
		// truncates to zero.
		retrainPeriod = time.Duration(*retrainEvery * float64(time.Second))
		if retrainPeriod <= 0 || *retrainEvery > 365*86400 {
			log.Fatalf("-retrain-every %g out of range (ns..1 year, in seconds)", *retrainEvery)
		}
	}
	if math.IsNaN(*staleThreshold) || *staleThreshold < 0 {
		log.Fatalf("-staleness-threshold %g invalid (seconds; 0 disables)", *staleThreshold)
	}
	if math.IsNaN(*autoscaleEvery) || *autoscaleEvery < 0 {
		log.Fatalf("-autoscale-every %g invalid (seconds; 0 disables)", *autoscaleEvery)
	}
	var autoscalePeriod time.Duration
	if *autoscaleEvery > 0 {
		autoscalePeriod = time.Duration(*autoscaleEvery * float64(time.Second))
		if autoscalePeriod <= 0 || *autoscaleEvery > 365*86400 {
			log.Fatalf("-autoscale-every %g out of range (ns..1 year, in seconds)", *autoscaleEvery)
		}
	}
	switch *actuator {
	case "", "dryrun", "sim":
	default:
		log.Fatalf("-actuator %q invalid (want dryrun or sim)", *actuator)
	}
	if *fleetNodes < 1 {
		log.Fatalf("-fleet-nodes %d invalid (min 1)", *fleetNodes)
	}
	if *restoreGen != 0 && *fleetNodes > 1 {
		// Snapshot generations are per-node timelines; one number cannot
		// name a consistent fleet-wide state.
		log.Fatalf("-restore-generation is single-node only; in fleet mode restart with -fleet-nodes 1 per data dir, or POST /v1/nodes/{node}/v1/admin/restore-generation")
	}
	policy, err := wal.ParseSyncPolicy(*walFsync)
	if err != nil {
		log.Fatalf("-wal-fsync: %v", err)
	}
	if math.IsNaN(*walFsyncEvery) || *walFsyncEvery <= 0 || *walFsyncEvery > 3600 {
		log.Fatalf("-wal-fsync-interval %g invalid (seconds, 0..3600 exclusive low)", *walFsyncEvery)
	}
	if *walSegment < 1 {
		log.Fatalf("-wal-segment-bytes %d invalid (min 1)", *walSegment)
	}
	var snapshotPeriod time.Duration
	if *dataDir != "" {
		if *snapshotRetain < 1 {
			log.Fatalf("-snapshot-retain %d invalid (min 1: the current generation)", *snapshotRetain)
		}
		if math.IsNaN(*snapshotEvery) || *snapshotEvery < 0 {
			log.Fatalf("-snapshot-every %g invalid (seconds; 0 disables)", *snapshotEvery)
		}
		if *snapshotEvery > 0 {
			snapshotPeriod = time.Duration(*snapshotEvery * float64(time.Second))
			if snapshotPeriod <= 0 || *snapshotEvery > 365*86400 {
				log.Fatalf("-snapshot-every %g out of range (ns..1 year, in seconds)", *snapshotEvery)
			}
		}
	} else if snapshotEverySet && *snapshotEvery != 0 {
		// Asking for periodic snapshots without a place to put them is a
		// misconfiguration; explicitly disabling them (0) is not.
		log.Fatalf("-snapshot-every needs -data-dir")
	} else if *restoreGen != 0 {
		log.Fatalf("-restore-generation needs -data-dir")
	}

	opts := fleet.NodeOptions{
		Engine:             &cfg,
		MaxIngestBytes:     *maxIngest,
		SnapshotEvery:      snapshotPeriod,
		SnapshotRetain:     *snapshotRetain,
		RestoreGeneration:  *restoreGen,
		WALFsync:           policy,
		WALFsyncInterval:   time.Duration(*walFsyncEvery * float64(time.Second)),
		WALSegmentBytes:    *walSegment,
		StalenessThreshold: *staleThreshold,
		RetrainEvery:       retrainPeriod,
		RetrainWorkers:     *retrainWorkers,
		AutoscaleEvery:     autoscalePeriod,
		Actuator:           *actuator,
	}
	if *maxIngest == 0 {
		opts.MaxIngestBytes = -1 // scalerd's 0 means "no cap"
	}

	// Boot the nodes. A single node keeps the classic layout (snapshots
	// directly under -data-dir); a fleet shards it into <data-dir>/nK so
	// every node is shared-nothing on disk too.
	nodes := make([]*fleet.Node, *fleetNodes)
	for i := range nodes {
		nodeOpts := opts
		name := fmt.Sprintf("n%d", i)
		if *dataDir != "" {
			if *fleetNodes == 1 {
				nodeOpts.DataDir = *dataDir
			} else {
				nodeOpts.DataDir = filepath.Join(*dataDir, name)
			}
		}
		n, err := fleet.NewNode(name, nodeOpts)
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = n
		boot := n.Boot()
		for _, q := range boot.Quarantined {
			log.Printf("node %s: quarantined workload %s (%s): %s", name, q.ID, q.File, q.Reason)
		}
		if boot.Restored > 0 {
			log.Printf("node %s: restored %d workloads from %s", name, boot.Restored, nodeOpts.DataDir)
		}
		if rep := boot.WALReplay; rep.Records > 0 || rep.Truncations > 0 || len(rep.Reset) > 0 {
			log.Printf("node %s: wal replay: %d workloads, %d records (%d events), %d truncated tails, %d logs reset",
				name, rep.Workloads, rep.Records, rep.Events, rep.Truncations, len(rep.Reset))
		}
	}
	if *restoreGen != 0 {
		log.Printf("rolled back to snapshot generation %d", *restoreGen)
	}
	if *dataDir != "" && snapshotPeriod > 0 {
		log.Printf("snapshotting to %s every %.0fs (incremental)", *dataDir, *snapshotEvery)
	}
	if retrainPeriod > 0 {
		log.Printf("background retraining every %.0fs with %d workers per node", *retrainEvery, *retrainWorkers)
	}
	if autoscalePeriod > 0 {
		log.Printf("autoscale actuation sweep every %.0fs per node (%s backend); workloads opt in via autoscale.enabled", *autoscaleEvery, *actuator)
	}

	// One node serves its handler directly — byte-for-byte the surface
	// scalerd has always had. A fleet serves the router.
	var handler http.Handler = nodes[0].Handler()
	if *fleetNodes > 1 {
		router, err := fleet.NewRouter(nodes, fleet.RouterOptions{
			VirtualNodes: *fleetVnodes,
			Seed:         *fleetSeed,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, ra := range router.Reassignments() {
			if len(ra.DroppedFrom) > 0 {
				log.Printf("boot reconciliation: workload %s kept on %s, duplicate copies dropped from %v", ra.Workload, ra.Node, ra.DroppedFrom)
			} else {
				log.Printf("boot reconciliation: workload %s pinned to %s (off ring owner)", ra.Workload, ra.Node)
			}
		}
		handler = router.Handler()
		log.Printf("fleet mode: %d nodes behind the consistent-hash router", *fleetNodes)
	}
	log.Printf("scalerd listening on %s (τ=%.0fs, Δt=%.0fs); metrics on /metrics", *listen, *pending, *dt)

	srv := &http.Server{Addr: *listen, Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		// Bind failure or an unexpected listener death: nothing to drain.
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("received %v, shutting down", sig)
	}

	// Drain in-flight HTTP first so the final snapshots see their
	// effects, then close every node: each stops its background loops,
	// writes a final snapshot (persistence on) and flushes its WAL.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// The final snapshots below may miss the killed requests'
			// effects; say so instead of reporting a clean drain.
			log.Printf("http drain incomplete after %v; remaining connections closed", shutdownGrace)
		} else {
			log.Printf("http shutdown: %v", err)
		}
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			log.Printf("node %s shutdown: %v", n.Name(), err)
		} else if n.DataDir() != "" {
			log.Printf("node %s: final snapshot written to %s", n.Name(), n.DataDir())
		}
	}
	log.Print("shutdown complete")
}
