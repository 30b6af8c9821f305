package engine

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"robustscaler/internal/metrics"
	"robustscaler/internal/wal"
)

// numShards spreads workload IDs across independently locked maps so
// engine lookup never funnels hundreds of workloads through one mutex.
// Power of two; 32 shards keep contention negligible well past the
// "hundreds of workloads" design point.
const numShards = 32

// Registry multiplexes many workloads in one process: it maps workload
// IDs to Engines, creating them on demand from a shared Config template.
// Lookup is sharded by ID hash; each Engine then locks only itself, so
// traffic on one workload never serializes against another.
type Registry struct {
	cfg    Config
	shards [numShards]shard
	// snapMu serializes SnapshotTo's collect+commit: without it, a slow
	// snapshot that collected the registry before a Remove could commit
	// its stale manifest over the delete-triggered snapshot (the last
	// commit wins), resurrecting the deleted workload on the next boot.
	// It also guards saved.
	snapMu sync.Mutex
	// saved maps data dir → workload ID → the durable-state generation
	// the last commit into that dir captured; SnapshotTo skips workloads
	// whose engines still sit at that generation (see Engine.StateGen).
	// Keyed per dir because bookkeeping is per store: a backup snapshot
	// into a second dir must not make the primary dir's next tick
	// believe its (older) files are current.
	saved map[string]map[string]uint64

	// healthMu guards snapHealth, the outcome trail of snapshot
	// attempts (see metrics.go). Separate from snapMu so a health read
	// never blocks behind an in-flight snapshot.
	healthMu   sync.Mutex
	snapHealth SnapshotHealth
	// instMu guards the shared instruments Instrument installs; fleet
	// and fitSeconds are handed to every engine at creation,
	// snapSeconds observes snapshot durations. It also guards the WAL
	// wiring (walMgr/walDir, set once by AttachWAL before traffic) and
	// the staleness alert threshold.
	instMu      sync.Mutex
	fleet       *fleetCounters
	fitSeconds  *metrics.Histogram
	snapSeconds *metrics.Histogram
	walMgr      *wal.Manager
	walDir      string
	// stalenessThreshold (seconds) feeds the
	// robustscaler_workloads_stale_over_threshold gauge; 0 disables it.
	stalenessThreshold float64
}

type shard struct {
	mu      sync.RWMutex
	engines map[string]*Engine
}

// NewRegistry validates the config template and returns an empty
// registry.
func NewRegistry(cfg Config) (*Registry, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Registry{cfg: cfg, saved: make(map[string]map[string]uint64)}
	for i := range r.shards {
		r.shards[i].engines = make(map[string]*Engine)
	}
	return r, nil
}

// fnv1a is the 64-bit FNV-1a hash, inlined to keep the hot lookup
// allocation-free.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (r *Registry) shard(id string) *shard {
	return &r.shards[fnv1a(id)&(numShards-1)]
}

// Config returns the (normalized) template every workload is created
// from.
func (r *Registry) Config() Config { return r.cfg }

// Get returns the workload's engine if it exists.
func (r *Registry) Get(id string) (*Engine, bool) {
	s := r.shard(id)
	s.mu.RLock()
	e, ok := s.engines[id]
	s.mu.RUnlock()
	return e, ok
}

// GetOrCreate returns the workload's engine, creating it on first use.
func (r *Registry) GetOrCreate(id string) (*Engine, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty workload id", ErrInvalid)
	}
	s := r.shard(id)
	s.mu.RLock()
	e, ok := s.engines[id]
	s.mu.RUnlock()
	if ok {
		return e, nil
	}
	fresh, err := New(r.cfg)
	if err != nil {
		return nil, err
	}
	// Attach the shared fleet counters and fit-latency histogram (if
	// Instrument installed them) before the engine becomes reachable,
	// so the fields are never written after first use.
	r.instMu.Lock()
	fresh.fleet = r.fleet
	fresh.SetFitSeconds(r.fitSeconds)
	mgr := r.walMgr
	r.instMu.Unlock()
	if mgr != nil {
		// The write-ahead log likewise attaches before publication: the
		// first ingest the workload ever acknowledges is already durable.
		// (A lost creation race below is harmless — both racers get the
		// same *wal.Log from the manager's cache.)
		l, err := mgr.Log(id)
		if err != nil {
			return nil, fmt.Errorf("engine: opening write-ahead log for workload %q: %w", id, err)
		}
		fresh.attachWAL(l)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.engines[id]; ok { // lost the creation race
		return e, nil
	}
	s.engines[id] = fresh
	return fresh, nil
}

// Remove drops a workload and reports whether it existed. In-flight
// requests holding the engine finish against it; new lookups miss.
func (r *Registry) Remove(id string) bool {
	s := r.shard(id)
	s.mu.Lock()
	_, ok := s.engines[id]
	if ok {
		delete(s.engines, id)
	}
	s.mu.Unlock()
	if ok {
		// Drop the snapshot bookkeeping too — after the shard lock is
		// released (SnapshotTo takes snapMu before shard locks, so
		// nesting them the other way here would invite a deadlock).
		// Without this, a recreated workload whose fresh state
		// generation happens to match the stale saved one would be
		// "carried unchanged" and never persisted.
		r.snapMu.Lock()
		for _, m := range r.saved {
			delete(m, id)
		}
		r.snapMu.Unlock()
		// The workload's write-ahead log goes with it: its records
		// describe a history that no longer exists, and a recreated
		// workload under the same ID must start a fresh sequence.
		r.removeWAL(id)
	}
	return ok
}

// Len returns the number of registered workloads.
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.engines)
		s.mu.RUnlock()
	}
	return n
}

// Workloads returns the registered workload IDs, sorted.
func (r *Registry) Workloads() []string {
	var ids []string
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for id := range s.engines {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// snapshot returns all engines without holding any shard lock afterward.
func (r *Registry) snapshot() []*Engine {
	var out []*Engine
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, e := range s.engines {
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	return out
}

// RetrainAll sweeps every workload once through a pool of `workers`
// goroutines, refitting the ones with arrivals newer than their model
// (Engine.Retrain). It returns how many workloads were refitted and how
// many refits failed (those keep their previous model). This is the unit
// of work the background Retrainer schedules; it is also callable
// directly, e.g. from tests or an admin endpoint.
func (r *Registry) RetrainAll(workers int) (refitted, failed int) {
	engines := r.snapshot()
	if len(engines) == 0 {
		return 0, 0
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(engines) {
		workers = len(engines)
	}
	jobs := make(chan *Engine)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range jobs {
				ran, err := retrainContained(e)
				mu.Lock()
				if ran {
					refitted++
				}
				if err != nil {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	for _, e := range engines {
		jobs <- e
	}
	close(jobs)
	wg.Wait()
	return refitted, failed
}

// retrainContained runs one refit with panic containment: inside HTTP
// handlers net/http recovers training panics per request, but the sweep
// runs on bare goroutines where one degenerate workload would otherwise
// take down every workload in the process.
func retrainContained(e *Engine) (ran bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			ran, err = false, fmt.Errorf("engine: retrain panic: %v", r)
			log.Printf("engine: background retrain panic (previous model kept): %v", r)
		}
	}()
	return e.Retrain()
}

// Retrainer periodically refreshes every workload's model, as the paper
// prescribes for the NHPP (low-frequency refits, e.g. every half hour) —
// scaled out to many workloads by the worker pool.
type Retrainer struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartRetrainer launches the background sweep loop: every `every`, all
// stale workloads are refitted by `workers` concurrent fitters. Stop
// waits for an in-flight sweep to finish.
func (r *Registry) StartRetrainer(every time.Duration, workers int) *Retrainer {
	if every <= 0 {
		panic(fmt.Sprintf("engine: non-positive retrain period %v", every))
	}
	rt := &Retrainer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rt.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-ticker.C:
				if refitted, failed := r.RetrainAll(workers); failed > 0 {
					log.Printf("engine: background retrain sweep: %d refit, %d failed (previous models kept)", refitted, failed)
				}
			}
		}
	}()
	return rt
}

// Stop halts the sweep loop and waits for it to exit. Safe to call more
// than once (e.g. a signal handler racing a deferred cleanup).
func (rt *Retrainer) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}
