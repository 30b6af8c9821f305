// Package fleet is the horizontal distribution layer: N shared-nothing
// scalerd nodes — each a full Registry+Store+WAL stack over its own
// data directory — behind a Router that owns a consistent-hash ring
// (internal/ring), forwards per-workload routes to the owning node,
// scatter-gathers the fleet-wide endpoints, and migrates live
// workloads between nodes with a snapshot handoff plus WAL-tail
// catch-up.
//
// The layer is in-process-first: nodes are values in this process and
// dispatch is a direct http.Handler call, so the whole fleet is plain
// `go test`-able and `scalerd -fleet-nodes N` is one binary. The same
// Router works over out-of-process nodes through NewRemoteNode (an
// http.Handler seam — typically httputil.ReverseProxy over a custom
// http.RoundTripper); real multi-process is then deployment
// configuration, not new code.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"robustscaler/internal/engine"
	"robustscaler/internal/pipeline"
	"robustscaler/internal/server"
	"robustscaler/internal/store"
	"robustscaler/internal/wal"
)

// NodeOptions configures one fleet node. The zero value is a valid
// in-memory node: no persistence, no WAL, no background loops.
type NodeOptions struct {
	// Engine is the fleet-default engine configuration new workloads
	// start from (identical to scalerd's engine flags). The zero value
	// means server.DefaultConfig(). Every node of a fleet must share
	// one template — per-workload config travels with migrations, but
	// defaults for *new* workloads come from the owning node.
	Engine *server.Config

	// MaxIngestBytes caps one arrivals body. 0 keeps the server
	// default (server.DefaultMaxIngestBytes); negative disables the
	// cap.
	MaxIngestBytes int64

	// DataDir enables persistence: snapshots under DataDir, the
	// write-ahead log under DataDir/wal. Empty disables both.
	DataDir string
	// SnapshotEvery starts a background snapshotter on that cadence;
	// 0 disables (snapshots then happen only via the admin endpoint,
	// migration handoffs, and the final one at Close).
	SnapshotEvery time.Duration
	// SnapshotRetain is how many committed snapshot generations stay
	// on disk for point-in-time restore; 0 means 1 (the current one).
	SnapshotRetain int
	// RestoreGeneration boots from this retained generation instead of
	// the current one (0 = current) and resets the WAL, which belongs
	// to the abandoned timeline.
	RestoreGeneration uint64

	// WALFsync is the log durability policy. Defaults to SyncAlways
	// (wal.Options' default); scalerd's flag default is "interval".
	WALFsync wal.SyncPolicy
	// WALFsyncInterval is the SyncInterval flush cadence; 0 means the
	// WAL default.
	WALFsyncInterval time.Duration
	// WALSegmentBytes is the segment rotation size; 0 means the WAL
	// default.
	WALSegmentBytes int64

	// StalenessThreshold feeds the stale-workload alert gauge
	// (seconds; 0 disables).
	StalenessThreshold float64
	// RetrainEvery starts a background retrain sweep on that cadence
	// (0 disables) with RetrainWorkers workers (0 means 1).
	RetrainEvery   time.Duration
	RetrainWorkers int

	// AutoscaleEvery starts the background actuation loop on that
	// cadence (0 disables; recommendations then come only from the
	// endpoint). Per-workload gating still applies: only workloads
	// whose autoscale config is enabled are stepped, each at its own
	// interval_seconds.
	AutoscaleEvery time.Duration
	// Actuator selects the actuation backend: "" or "dryrun" records
	// decisions without acting; "sim" drives the in-process simulated
	// cluster.
	Actuator string
}

// BootReport is what restoring a node's state found and gave up on,
// for the caller to log.
type BootReport struct {
	Restored    int
	Quarantined []store.Quarantined
	WALReplay   engine.WALReplayReport
}

// Node is one member of the fleet: a full scalerd stack (registry,
// store, WAL, background loops) behind a name. Remote nodes (see
// NewRemoteNode) carry only the name and an http.Handler.
type Node struct {
	name    string
	handler http.Handler

	// Everything below is nil for a remote node.
	srv         *server.Server
	st          *store.Store
	walMgr      *wal.Manager
	snapshotter *engine.Snapshotter
	retrainer   *engine.Retrainer
	autoscaler  *pipeline.Loop
	boot        BootReport
	dataDir     string
}

// NewNode boots a fleet node: open the store, restore tolerant of
// per-workload corruption, open and replay the WAL, then start the
// background loops — the same sequence, in the same order, scalerd
// has always used for its single stack, because it is one (scalerd is
// now a 1-node fleet).
func NewNode(name string, opts NodeOptions) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("fleet: empty node name")
	}
	cfg := server.DefaultConfig()
	if opts.Engine != nil {
		cfg = *opts.Engine
	}
	s, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet node %s: %w", name, err)
	}
	if opts.MaxIngestBytes != 0 {
		n := opts.MaxIngestBytes
		if n < 0 {
			n = 0 // the server treats ≤0 as "no cap"
		}
		s.SetMaxIngestBytes(n)
	}

	n := &Node{name: name, srv: s, dataDir: opts.DataDir}
	if opts.DataDir != "" {
		if err := n.bootPersistence(opts); err != nil {
			return nil, fmt.Errorf("fleet node %s: %w", name, err)
		}
	} else if opts.RestoreGeneration != 0 {
		return nil, fmt.Errorf("fleet node %s: RestoreGeneration needs DataDir", name)
	}

	if t := opts.StalenessThreshold; math.IsNaN(t) || t < 0 {
		return nil, fmt.Errorf("fleet node %s: staleness threshold %g invalid", name, t)
	}
	s.Registry().SetStalenessThreshold(opts.StalenessThreshold)
	if opts.RetrainEvery > 0 {
		workers := opts.RetrainWorkers
		if workers <= 0 {
			workers = 1
		}
		n.retrainer = s.Registry().StartRetrainer(opts.RetrainEvery, workers)
	}
	if err := s.SetActuator(opts.Actuator); err != nil {
		n.Close()
		return nil, fmt.Errorf("fleet node %s: %w", name, err)
	}
	if opts.AutoscaleEvery > 0 {
		n.autoscaler = s.Pipelines().StartLoop(opts.AutoscaleEvery)
	}
	n.handler = s.Handler()
	return n, nil
}

// bootPersistence is the store+WAL half of the boot order. Restore
// must finish before the node serves so requests never race a
// half-restored registry; the WAL opens after the snapshot restore and
// before serving, so every batch acknowledged from here on is durable.
func (n *Node) bootPersistence(opts NodeOptions) error {
	st, err := store.Open(opts.DataDir)
	if err != nil {
		return fmt.Errorf("opening data dir %s: %w (move its contents aside to boot cold)", opts.DataDir, err)
	}
	retain := opts.SnapshotRetain
	if retain < 1 {
		retain = 1
	}
	st.SetRetain(retain)
	if opts.RestoreGeneration != 0 {
		// Point-in-time restore: repoint the manifest before anything
		// reads it. The restore commits a new generation, so the
		// pre-restore state stays retained (and recoverable) too.
		if err := st.RestoreGeneration(opts.RestoreGeneration); err != nil {
			return fmt.Errorf("restore generation %d: %w", opts.RestoreGeneration, err)
		}
	}
	restored, quarantined, err := n.srv.Registry().RestoreFromTolerant(st)
	if err != nil {
		return fmt.Errorf("restoring snapshot from %s: %w (move its contents aside to boot cold)", opts.DataDir, err)
	}

	walMgr, err := wal.Open(wal.Options{
		Dir:          filepath.Join(opts.DataDir, "wal"),
		Policy:       opts.WALFsync,
		Interval:     opts.WALFsyncInterval,
		SegmentBytes: opts.WALSegmentBytes,
	})
	if err != nil {
		return fmt.Errorf("opening write-ahead log under %s: %w", opts.DataDir, err)
	}
	if opts.RestoreGeneration != 0 {
		// The logs describe the timeline the rollback just abandoned;
		// replaying them over the older snapshot would interleave two
		// histories.
		if err := walMgr.ResetAll(); err != nil {
			walMgr.Close()
			return fmt.Errorf("resetting write-ahead logs after rollback: %w", err)
		}
	}
	if err := n.srv.Registry().AttachWAL(walMgr, opts.DataDir); err != nil {
		walMgr.Close()
		return fmt.Errorf("attaching write-ahead log: %w", err)
	}
	rep, err := n.srv.Registry().ReplayWAL()
	if err != nil {
		walMgr.Close()
		return fmt.Errorf("replaying write-ahead log: %w", err)
	}
	walMgr.Instrument(n.srv.Metrics())
	n.srv.SetBootDegraded(quarantined, rep.Reset)
	n.srv.SetStore(st)
	n.st, n.walMgr = st, walMgr
	n.boot = BootReport{Restored: restored, Quarantined: quarantined, WALReplay: rep}

	if opts.SnapshotEvery > 0 {
		n.snapshotter = n.srv.Registry().StartSnapshotter(st, opts.SnapshotEvery)
	}
	return nil
}

// NewRemoteNode wraps an out-of-process node the router can forward
// and scatter to but not migrate from/to: handler is the remote's HTTP
// surface, typically httputil.ReverseProxy over whatever transport
// reaches it.
func NewRemoteNode(name string, handler http.Handler) *Node {
	return &Node{name: name, handler: handler}
}

// Name returns the node's fleet-unique name.
func (n *Node) Name() string { return n.name }

// Handler returns the node's HTTP surface.
func (n *Node) Handler() http.Handler { return n.handler }

// Server returns the in-process server, or nil for a remote node.
func (n *Node) Server() *server.Server { return n.srv }

// Registry returns the node's workload registry, or nil for a remote
// node.
func (n *Node) Registry() *engine.Registry {
	if n.srv == nil {
		return nil
	}
	return n.srv.Registry()
}

// Boot returns what restoring this node found.
func (n *Node) Boot() BootReport { return n.boot }

// DataDir returns the node's data directory ("" without persistence).
func (n *Node) DataDir() string { return n.dataDir }

// WALLog returns the workload's write-ahead log, or nil when the node
// runs without one. The log is the same instance the engine appends
// to — reading it during a migration gate sees every acknowledged
// batch.
func (n *Node) WALLog(id string) *wal.Log {
	if n.walMgr == nil {
		return nil
	}
	l, err := n.walMgr.Log(id)
	if err != nil {
		return nil
	}
	return l
}

// SnapshotNow commits a snapshot of the node's current state, or is a
// no-op without persistence. Migration calls it on the source after
// cutover — the registry drop it must make durable is exactly the kind
// of change only a full snapshot can express.
func (n *Node) SnapshotNow() error {
	if n.st == nil || n.srv == nil {
		return nil
	}
	_, err := n.srv.Registry().SnapshotTo(n.st)
	return err
}

// SnapshotWorkload makes just the named workload durable, leaving the
// rest of the node's snapshot untouched; a no-op without persistence.
// Migration calls it on the destination inside the cutover gate — a
// crash right after the source forgets the workload cannot lose it,
// and the ingest pause stays O(workload) no matter how much else the
// node hosts.
func (n *Node) SnapshotWorkload(id string) error {
	if n.st == nil || n.srv == nil {
		return nil
	}
	return n.srv.Registry().SnapshotWorkloadTo(n.st, id)
}

// Close shuts the node down gracefully: stop the background loops,
// write a final snapshot (persistence on), then close the WAL — the
// snapshot truncates the logs it made redundant, and closing flushes
// whatever the interval fsync policy still holds dirty. The caller
// drains HTTP first so the final snapshot sees in-flight effects.
func (n *Node) Close() error {
	if n.srv == nil {
		return nil
	}
	var errs []error
	if n.autoscaler != nil {
		n.autoscaler.Stop()
	}
	if n.retrainer != nil {
		n.retrainer.Stop()
	}
	switch {
	case n.snapshotter != nil:
		if err := n.snapshotter.Stop(); err != nil {
			errs = append(errs, fmt.Errorf("final snapshot: %w", err))
		}
	case n.st != nil:
		if _, err := n.srv.Registry().SnapshotTo(n.st); err != nil {
			errs = append(errs, fmt.Errorf("final snapshot: %w", err))
		}
	}
	if n.walMgr != nil {
		if err := n.walMgr.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing write-ahead log: %w", err))
		}
	}
	return errors.Join(errs...)
}
