package engine

// This file is the durability layer of the engine: what survives a
// process restart, and how. Engine.MarshalState / Engine.RestoreState
// define the per-workload state blob (arrival history, fitted model,
// and the versioned per-workload EngineConfig); Registry.SnapshotTo /
// RestoreFrom move every workload through internal/store's per-workload
// manifest layout; the Snapshotter mirrors the Retrainer's
// background-loop pattern to keep snapshots fresh without operator
// action.
//
// Snapshots are incremental: every engine carries a durable-state
// generation (stateGen, bumped by ingest/train/restore/config updates)
// and the registry remembers the generation it last persisted per
// workload, so a snapshot tick marshals and rewrites only workloads
// that changed — a large idle fleet costs one manifest write, not a
// fleet-wide serialization.
//
// JSON encoding and disk I/O run outside the engine mutex; the lock is
// held only for a defensive copy of the arrival history (required —
// ingest appends into the shared backing array), so the stall a
// snapshot can impose on ingest or planning is one memcpy, never an
// encode or a write.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"robustscaler/internal/nhpp"
	"robustscaler/internal/store"
	"robustscaler/internal/train"
)

// engineState is the persisted form of one Engine: the per-workload
// configuration, the retained arrival history and the fitted model. The
// Train sub-config and the clock are deliberately not persisted — they
// describe how future fits run, not what was learned, so the restoring
// process's (possibly newer) settings apply.
//
// The scalar fields (Dt..MCSamples) are the v1 blob schema; v2 blobs
// carry the full versioned config under "config" and keep writing the
// scalars so a pre-config-plane build can still restore the snapshot
// after a rollback. RestoreState reads either shape. Blobs written while
// rt/cost plans were Monte Carlo also carry a "seed"; it is ignored.
type engineState struct {
	Dt            float64 `json:"dt"`
	Pending       float64 `json:"pending"`
	HistoryWindow float64 `json:"history_window"`
	MCSamples     int     `json:"mc_samples"`
	// Config is the versioned per-workload configuration (v2 blobs);
	// nil in blobs written before the config plane existed.
	Config   *EngineConfig `json:"config,omitempty"`
	Arrivals []float64     `json:"arrivals"`
	TrainedN int           `json:"trained_n"`
	// Stale records whether arrivals had landed after the model's fit at
	// snapshot time, so a restart cannot launder an outdated model into a
	// fresh-looking one: the restored engine re-enters the background
	// retrainer's queue exactly when the pre-crash engine would have.
	Stale bool `json:"stale,omitempty"`
	// Failed records that the last fit over the current arrivals failed,
	// so a restart doesn't re-run a known-failing (potentially expensive)
	// fit on every boot — the retrainer keeps skipping the workload until
	// new arrivals land, same as pre-crash.
	Failed bool        `json:"failed,omitempty"`
	Model  *modelState `json:"model,omitempty"`
	// WALSeq is the last write-ahead-log batch sequence this blob's
	// arrival history covers; boot-time replay skips records at or below
	// it and re-applies the rest. 0 in blobs written without a WAL.
	WALSeq uint64 `json:"wal_seq,omitempty"`
}

// modelState is the persisted form of a fitted model. Only the fit's
// inputs-of-record are stored (start, bin width, log-intensity vector,
// period); the derived lookup tables are rebuilt deterministically by
// nhpp.NewModel on restore, which is what makes the round trip
// bit-for-bit: same inputs, same construction, same outputs.
type modelState struct {
	Start         float64       `json:"start"`
	Dt            float64       `json:"dt"`
	LogIntensity  []float64     `json:"log_intensity"`
	PeriodBins    int           `json:"period_bins"`
	PeriodSeconds float64       `json:"period_seconds"`
	FitStats      nhpp.FitStats `json:"fit_stats"`
}

// marshalState serializes the engine's durable state and reports the
// state generation the blob captures, so the snapshotter can record
// exactly what it persisted even if the engine moves on mid-write. The
// engine lock is held only to copy the state out (an O(history) memcpy
// — the backing array is shared with ingest); JSON encoding happens
// unlocked.
func (e *Engine) marshalState() ([]byte, uint64, uint64, error) {
	e.mu.Lock()
	arr := append([]float64(nil), e.arrivals...)
	model := e.model
	trainedN := e.trainedN
	stale := e.gen != e.trainedGen
	failed := e.gen > 0 && e.gen == e.failedGen
	ec := e.ec
	gen := e.stateGen
	walSeq := e.walSeq
	e.mu.Unlock()

	st := engineState{
		Dt:            ec.Dt,
		Pending:       ec.Pending,
		HistoryWindow: ec.HistoryWindow,
		MCSamples:     ec.MCSamples,
		Config:        &ec,
		Arrivals:      arr,
		TrainedN:      trainedN,
		Stale:         stale,
		Failed:        failed,
		WALSeq:        walSeq,
	}
	if model != nil {
		st.Model = &modelState{
			Start:         model.NHPP.Start,
			Dt:            model.NHPP.Dt,
			LogIntensity:  model.NHPP.R,
			PeriodBins:    model.NHPP.Period,
			PeriodSeconds: model.PeriodSeconds,
			FitStats:      model.FitStats,
		}
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("engine: marshaling state: %w", err)
	}
	return blob, gen, walSeq, nil
}

// MarshalState serializes the engine's durable state (per-workload
// config, arrival history, fitted model, staleness) to a JSON blob for
// Engine.RestoreState.
func (e *Engine) MarshalState() ([]byte, error) {
	blob, _, _, err := e.marshalState()
	return blob, err
}

// logIntensityBound rejects restored log intensities outside the fit's
// own clamp (±40, see nhpp): anything beyond it cannot have come from a
// real fit and would overflow exp() into Inf rates.
const logIntensityBound = 40.0

// RestoreState replaces the engine's state with a blob produced by
// MarshalState: per-workload config, arrival history and fitted model.
// The Train sub-config and clock keep their current
// (constructor-supplied) values. Every field is validated before
// anything is mutated, so a corrupt blob leaves the engine untouched and
// returns an error wrapping ErrInvalid rather than panicking.
//
// Blobs written before the config plane existed carry only the scalar
// config fields; the missing knobs (plan targets, horizon, retrain
// cadence) take the booting process's template values and the restored
// config starts at version 1.
//
// RestoreState must run before the engine serves traffic: the boot
// sequence in cmd/scalerd guarantees this. At boot, plans of every
// variant resume bit-for-bit from the snapshot.
func (e *Engine) RestoreState(blob []byte) error {
	var st engineState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("%w: decoding engine state: %v", ErrInvalid, err)
	}
	var ec EngineConfig
	if st.Config != nil {
		ec = *st.Config
		if ec.Version == 0 {
			ec.Version = 1
		}
		if err := ec.validate(); err != nil {
			return fmt.Errorf("restored config: %w", err)
		}
	} else {
		// Legacy (pre-config-plane) blob: scalars from the blob, the rest
		// from this engine's template, with the legacy normalizations
		// (e.g. mc_samples 0 → 1000) the v1 reader applied.
		ec = e.EngineConfig()
		ec.Version = 1
		ec.Dt = st.Dt
		ec.Pending = st.Pending
		ec.HistoryWindow = st.HistoryWindow
		ec.MCSamples = st.MCSamples
		if ec.MCSamples <= 0 {
			ec.MCSamples = 1000
		}
		if err := ec.validate(); err != nil {
			return fmt.Errorf("restored config: %w", err)
		}
	}
	if err := ValidateTimestamps(st.Arrivals); err != nil {
		return fmt.Errorf("restored arrivals: %w", err)
	}
	if !sort.Float64sAreSorted(st.Arrivals) {
		return fmt.Errorf("%w: restored arrivals are not sorted", ErrInvalid)
	}
	if st.TrainedN < 0 {
		return fmt.Errorf("%w: negative trained_n %d", ErrInvalid, st.TrainedN)
	}
	var model *train.Model
	if ms := st.Model; ms != nil {
		if ms.Dt <= 0 {
			return fmt.Errorf("%w: restored model has non-positive dt %g", ErrInvalid, ms.Dt)
		}
		if len(ms.LogIntensity) == 0 {
			return fmt.Errorf("%w: restored model has empty log-intensity", ErrInvalid)
		}
		for i, v := range ms.LogIntensity {
			if v < -logIntensityBound || v > logIntensityBound {
				return fmt.Errorf("%w: restored log-intensity %g at bin %d outside ±%g", ErrInvalid, v, i, logIntensityBound)
			}
		}
		if ms.PeriodBins < 0 || ms.PeriodBins >= len(ms.LogIntensity) {
			return fmt.Errorf("%w: restored period %d bins outside [0, %d)", ErrInvalid, ms.PeriodBins, len(ms.LogIntensity))
		}
		model = &train.Model{
			NHPP:          nhpp.NewModel(ms.Start, ms.Dt, ms.LogIntensity, ms.PeriodBins),
			PeriodBins:    ms.PeriodBins,
			PeriodSeconds: ms.PeriodSeconds,
			FitStats:      ms.FitStats,
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.ec = ec
	e.arrivals = st.Arrivals
	e.model = model
	e.results = nil
	e.trainedN = st.TrainedN
	e.failedGen = 0
	e.stateGen++
	e.lastTrainAt = 0
	e.walSeq = st.WALSeq
	// The restored config may carry a per-workload fsync override.
	e.applyWALPolicyLocked()
	switch {
	case model != nil && !st.Stale:
		// The restored model covers the restored arrivals: not stale, the
		// background retrainer leaves it alone until new traffic lands.
		e.gen, e.trainedGen = 1, 1
	case model != nil:
		// Arrivals had landed after the fit when the snapshot was taken:
		// keep serving the restored model but let the next retrain sweep
		// refresh it, exactly as it would have pre-restart.
		e.gen, e.trainedGen = 1, 0
	case len(st.Arrivals) >= 2:
		// Arrivals without a model (snapshot taken before first fit): mark
		// stale so the next retrain sweep fits one.
		e.gen, e.trainedGen = 1, 0
	default:
		e.gen, e.trainedGen = 0, 0
	}
	if st.Failed {
		e.failedGen = e.gen
	}
	// Re-stamp staleness from the boot clock: the pre-crash stamp is not
	// persisted, and a stale model should age (toward the alert
	// threshold) from now, not look fresh forever.
	e.staleSince = 0
	e.markStaleLocked()
	return nil
}

// SnapshotTo persists the registry into st incrementally: workloads
// whose durable state moved since the generation last committed for
// them (or that the store has never committed) are marshaled and
// rewritten; everything else is carried by ID, costing no serialization
// and no I/O. Workloads are ordered by ID so identical registry state
// produces an identical manifest. A workload that fails to serialize
// aborts the snapshot with an error naming it; the previous on-disk
// snapshot is left intact.
//
// Concurrent SnapshotTo calls are serialized so that what lands on disk
// last was also collected last — a registry change (e.g. a delete)
// followed by a snapshot is durable even while a slower snapshot of the
// pre-change registry is still in flight.
func (r *Registry) SnapshotTo(st *store.Store) (store.CommitStats, error) {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.snapshotLocked(st)
}

// snapshotLocked runs one snapshot and records its outcome (duration,
// success/failure) into the registry's snapshot-health trail, which
// /healthz and the /metrics snapshot series read.
func (r *Registry) snapshotLocked(st *store.Store) (store.CommitStats, error) {
	start := time.Now()
	stats, err := r.collectAndCommitLocked(st)
	r.recordSnapshot(time.Since(start), err)
	return stats, err
}

func (r *Registry) collectAndCommitLocked(st *store.Store) (store.CommitStats, error) {
	type entry struct {
		id string
		e  *Engine
	}
	var entries []entry
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for id, e := range s.engines {
			entries = append(entries, entry{id, e})
		}
		s.mu.RUnlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })

	var changed []store.Workload
	var keep []string
	prev := r.saved[st.Dir()]
	newGens := make(map[string]uint64, len(entries))
	// walSeqs pairs each engine with the WAL sequence the blob being
	// committed covers, so a successful commit can checkpoint the logs.
	// The pairing must be read atomically with the staleness verdict:
	// for a "kept" workload the current walSeq equals the persisted one
	// only while stateGen still matches (walSeq never moves without a
	// stateGen bump); a changed workload's walSeq is captured inside
	// marshalState, under the same lock hold as the history copy.
	type walMark struct {
		e   *Engine
		seq uint64
	}
	var walSeqs []walMark
	for _, en := range entries {
		sg, wseq := en.e.stateGenAndWALSeq()
		if g, ok := prev[en.id]; ok && st.Has(en.id) && g == sg {
			keep = append(keep, en.id)
			newGens[en.id] = g
			walSeqs = append(walSeqs, walMark{en.e, wseq})
			continue
		}
		blob, gen, wseq, err := en.e.marshalState()
		if err != nil {
			return store.CommitStats{}, fmt.Errorf("engine: snapshotting workload %q: %w", en.id, err)
		}
		changed = append(changed, store.Workload{ID: en.id, State: blob})
		newGens[en.id] = gen
		walSeqs = append(walSeqs, walMark{en.e, wseq})
	}
	stats, err := st.Commit(changed, keep)
	if err != nil {
		return stats, err
	}
	// The snapshot now covers every batch up to each captured walSeq:
	// checkpoint the logs. Only for the store the WAL is paired with —
	// truncating against a backup snapshot in another directory would
	// let the primary boot lose batches its own snapshot never saw.
	r.instMu.Lock()
	checkpoint := r.walMgr != nil && st.Dir() == r.walDir
	r.instMu.Unlock()
	if checkpoint {
		for _, wm := range walSeqs {
			wm.e.truncateWAL(wm.seq)
		}
	}
	// Record bookkeeping only for engines still registered under their
	// ID: a workload removed — or removed and recreated — while this
	// snapshot was collecting must not inherit the old engine's saved
	// generation, or a recreated engine whose fresh StateGen coincides
	// with it would be "kept" as the stale file forever.
	validated := make(map[string]uint64, len(newGens))
	for _, en := range entries {
		if cur, ok := r.Get(en.id); ok && cur == en.e {
			validated[en.id] = newGens[en.id]
		}
	}
	r.saved[st.Dir()] = validated
	return stats, nil
}

// Snapshot persists every registered workload into dir and returns how
// many workloads the resulting snapshot covers. It opens the store
// fresh each call; long-lived callers (the Snapshotter, the HTTP admin
// endpoint) hold one open Store and use SnapshotTo instead. The open
// happens under the same serialization as the commits: store.Open
// sweeps unmanifested files as crash debris, so it must never run
// while another snapshot of this registry is mid-commit in the same
// directory.
func (r *Registry) Snapshot(dir string) (int, error) {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	stats, err := r.snapshotLocked(st)
	return stats.Total, err
}

// RestoreFrom loads the snapshot committed in st, recreating every
// persisted workload and its state, and returns how many were restored.
// A store with no snapshot is the clean cold-boot case and returns
// (0, nil); a snapshot that exists but fails validation (store-level
// corruption or an invalid per-workload blob) returns an error naming
// the failure, with the registry left holding whatever restored before
// it. RestoreFrom is meant for boot, before the registry serves
// traffic; it also primes the incremental-snapshot bookkeeping, so the
// first tick after a v2 restore rewrites nothing.
func (r *Registry) RestoreFrom(st *store.Store) (int, error) {
	workloads, err := st.Load()
	if err != nil {
		if errors.Is(err, store.ErrNoSnapshot) {
			return 0, nil
		}
		return 0, err
	}
	n := 0
	for _, w := range workloads {
		e, err := r.GetOrCreate(w.ID)
		if err != nil {
			return n, fmt.Errorf("engine: restoring workload %q: %w", w.ID, err)
		}
		if err := e.RestoreState(w.State); err != nil {
			return n, fmt.Errorf("engine: restoring workload %q: %w", w.ID, err)
		}
		if st.Has(w.ID) {
			// The engine now mirrors the committed file exactly; record the
			// generation so an idle workload isn't rewritten on the next
			// tick. (Legacy v1 snapshots report Has=false, which is what
			// forces the migration commit to write everything once.)
			r.snapMu.Lock()
			if r.saved[st.Dir()] == nil {
				r.saved[st.Dir()] = make(map[string]uint64)
			}
			r.saved[st.Dir()][w.ID] = e.StateGen()
			r.snapMu.Unlock()
		}
		n++
	}
	return n, nil
}

// Restore loads the snapshot in dir via a freshly opened store; see
// RestoreFrom. The open is serialized against this registry's
// snapshots, for the same sweep-vs-commit reason as Snapshot.
func (r *Registry) Restore(dir string) (int, error) {
	r.snapMu.Lock()
	st, err := store.Open(dir)
	r.snapMu.Unlock()
	if err != nil {
		return 0, err
	}
	return r.RestoreFrom(st)
}

// Snapshotter periodically persists the whole registry, the durability
// counterpart of the Retrainer: same background-loop shape, same
// stop-once semantics.
type Snapshotter struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	// finalErr records the outcome of the final snapshot taken on Stop;
	// written before done closes, read only after it.
	finalErr error
}

// StartSnapshotter launches the background snapshot loop: every
// `every`, the registry is committed incrementally into st
// (Registry.SnapshotTo), so a tick over an idle fleet writes one
// manifest and nothing else. Errors are logged and the previous on-disk
// snapshot survives; the loop keeps trying on the next tick. Stop takes
// one final snapshot so a graceful shutdown persists the latest state.
func (r *Registry) StartSnapshotter(st *store.Store, every time.Duration) *Snapshotter {
	if every <= 0 {
		panic(fmt.Sprintf("engine: non-positive snapshot period %v", every))
	}
	sn := &Snapshotter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sn.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-sn.stop:
				if _, err := r.SnapshotTo(st); err != nil {
					log.Printf("engine: final snapshot on stop failed: %v", err)
					sn.finalErr = err
				}
				return
			case <-ticker.C:
				if _, err := r.SnapshotTo(st); err != nil {
					log.Printf("engine: background snapshot failed (previous snapshot kept): %v", err)
				}
			}
		}
	}()
	return sn
}

// Stop halts the snapshot loop, takes a final snapshot, waits for the
// loop to exit, and reports the final snapshot's outcome — so a
// graceful shutdown can tell the operator whether the latest state
// actually reached disk. Safe to call more than once (later calls
// return the same outcome).
func (sn *Snapshotter) Stop() error {
	sn.stopOnce.Do(func() { close(sn.stop) })
	<-sn.done
	return sn.finalErr
}
