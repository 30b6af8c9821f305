package engine

// Crash-fault injection for the durability plane: these tests drive the
// engine the way scalerd boots it (store restore → WAL attach → WAL
// replay), kill it at the worst moments, and assert the acceptance
// contract — every acknowledged batch survives restart with
// bit-identical plans and forecasts, every injected fault class either
// recovers by truncation or fails loudly, and nothing boots with
// silently corrupted history.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"robustscaler/internal/store"
	"robustscaler/internal/wal"
)

// walBoot wires a registry exactly like scalerd's boot sequence:
// restore the snapshot tolerantly, open the WAL, attach it, replay the
// surviving records. The returned report and quarantine list are what
// the daemon would surface through /healthz.
func walBoot(t *testing.T, cfg Config, storeDir, walDir string, fs wal.FS) (*Registry, *store.Store, *wal.Manager, WALReplayReport, []store.Quarantined) {
	t.Helper()
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	_, quarantined, err := r.RestoreFromTolerant(st)
	if err != nil {
		t.Fatalf("RestoreFromTolerant: %v", err)
	}
	mgr, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	if err := r.AttachWAL(mgr, st.Dir()); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	rep, err := r.ReplayWAL()
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	return r, st, mgr, rep, quarantined
}

// ingestVia feeds one batch through either ingest path, so the suite
// covers both the sorted-copy path and the streaming chunk path.
func ingestVia(t *testing.T, e *Engine, chunked bool, batch []float64) {
	t.Helper()
	var err error
	if chunked {
		_, err = e.IngestSortedChunks([][]float64{batch})
	} else {
		_, err = e.Ingest(batch)
	}
	if err != nil {
		t.Fatalf("ingest %v: %v", batch, err)
	}
}

// TestKill9AckedBatchesSurviveBitIdentical is the acceptance test:
// batches acknowledged after the last snapshot tick, with the process
// then killed without any shutdown path running, must be visible after
// restart — and the restarted fleet's plans and forecasts must be
// bit-identical to an uninterrupted run that saw the same traffic.
func TestKill9AckedBatchesSurviveBitIdentical(t *testing.T) {
	now := 7200.0
	cfg := testConfig(now)
	storeDir, walDir := t.TempDir(), t.TempDir()

	// The control fleet: same config, same traffic, never interrupted.
	control, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The crashing fleet, booted cold.
	r, st, _, rep, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if rep.Workloads != 0 {
		t.Fatalf("cold boot replayed %d workloads", rep.Workloads)
	}

	web := trafficArrivals(1, 3600)
	api := trafficArrivals(2, 3600)
	feed := func(r *Registry, id string, chunked bool, batch []float64) {
		e, err := r.GetOrCreate(id)
		if err != nil {
			t.Fatal(err)
		}
		ingestVia(t, e, chunked, batch)
	}
	// Phase 1: traffic that makes it into a snapshot tick.
	feed(r, "web", false, web[:len(web)/2])
	feed(r, "api", true, api[:len(api)/3])
	feed(control, "web", false, web[:len(web)/2])
	feed(control, "api", true, api[:len(api)/3])
	if _, err := r.SnapshotTo(st); err != nil {
		t.Fatalf("snapshot tick: %v", err)
	}
	// Phase 2: acknowledged after the tick — lives only in the WAL.
	feed(r, "web", true, web[len(web)/2:])
	feed(r, "api", false, api[len(api)/3:])
	feed(control, "web", true, web[len(web)/2:])
	feed(control, "api", false, api[len(api)/3:])

	// kill -9: no snapshot, no WAL close, no flush. The registry and
	// manager are simply abandoned; a new process boots from disk.
	r2, _, _, rep2, quarantined := walBoot(t, cfg, storeDir, walDir, nil)
	if len(quarantined) != 0 {
		t.Fatalf("quarantined on boot: %+v", quarantined)
	}
	if rep2.Records == 0 || len(rep2.Reset) != 0 || rep2.Truncations != 0 {
		t.Fatalf("replay report = %+v, want clean replay of the acked tail", rep2)
	}

	for _, id := range []string{"web", "api"} {
		ce, _ := control.Get(id)
		re, ok := r2.Get(id)
		if !ok {
			t.Fatalf("workload %q lost across the crash", id)
		}
		cn, _ := ce.Ingest(nil)
		rn, _ := re.Ingest(nil)
		if cn != rn {
			t.Fatalf("%q: restarted history has %d arrivals, control %d", id, rn, cn)
		}
		// Both fleets train cold over identical histories, then must
		// produce bit-identical plans (every variant is deterministic) and
		// forecasts.
		if _, err := ce.Train(); err != nil {
			t.Fatal(err)
		}
		if _, err := re.Train(); err != nil {
			t.Fatal(err)
		}
		for _, variant := range []string{"hp", "rt", "cost"} {
			cp := planOf(t, ce, variant, now)
			rp := planOf(t, re, variant, now)
			if !reflect.DeepEqual(cp, rp) {
				t.Fatalf("%q: %s plan diverged after crash recovery:\ncontrol: %+v\nrestart: %+v", id, variant, cp, rp)
			}
		}
		cf, err := ce.Forecast(now, now+1800, 60)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := re.Forecast(now, now+1800, 60)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cf, rf) {
			t.Fatalf("%q: forecast diverged after crash recovery", id)
		}
	}
}

// TestSnapshotCheckpointTruncatesWAL: a snapshot commit must checkpoint
// the logs (the records are now redundant), and the next boot replays
// nothing.
func TestSnapshotCheckpointTruncatesWAL(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	r, st, mgr, _, _ := walBoot(t, cfg, storeDir, walDir, nil)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{10, 20, 30})
	ingestVia(t, e, true, []float64{40, 50})
	l, err := mgr.Log("web")
	if err != nil {
		t.Fatal(err)
	}
	if ls := l.Stats(); ls.LastSeq != 2 || ls.SizeBytes == 0 {
		t.Fatalf("pre-snapshot log stats = %+v", ls)
	}
	if _, err := r.SnapshotTo(st); err != nil {
		t.Fatal(err)
	}
	if ls := l.Stats(); ls.Segments != 0 {
		t.Fatalf("post-snapshot log still holds %d segments", ls.Segments)
	}
	r2, _, _, rep, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if rep.Records != 0 {
		t.Fatalf("replayed %d records after a checkpointing snapshot", rep.Records)
	}
	e2, ok := r2.Get("web")
	if !ok {
		t.Fatal("workload lost")
	}
	if n, _ := e2.Ingest(nil); n != 5 {
		t.Fatalf("restored history has %d arrivals, want 5", n)
	}
	// And the sequence continues where it left off, not from zero.
	ingestVia(t, e2, false, []float64{60})
	if got := e2.Stats().WALLastSeq; got != 3 {
		t.Fatalf("post-restart append got seq %d, want 3", got)
	}
}

// TestBackupSnapshotDoesNotTruncateWAL: committing into a second store
// (an operator backup) must not checkpoint the primary's logs — the
// primary snapshot never captured those batches.
func TestBackupSnapshotDoesNotTruncateWAL(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	r, _, mgr, _, _ := walBoot(t, cfg, storeDir, walDir, nil)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{10, 20, 30})
	backup, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SnapshotTo(backup); err != nil {
		t.Fatal(err)
	}
	l, err := mgr.Log("web")
	if err != nil {
		t.Fatal(err)
	}
	if ls := l.Stats(); ls.Segments == 0 {
		t.Fatal("backup snapshot truncated the primary WAL")
	}
}

// TestFailedFsyncRejectsBatchUnacknowledged: under the always policy a
// batch whose fsync fails must be rejected with nothing mutated — the
// caller sees an error, the history is unchanged, and a restart does
// not resurrect the batch.
func TestFailedFsyncRejectsBatchUnacknowledged(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS())
	r, _, _, _, _ := walBoot(t, cfg, storeDir, walDir, ffs)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{10, 20})
	before := e.Stats()

	ffs.FailSyncs(errors.New("disk on fire"))
	if _, err := e.Ingest([]float64{30, 40}); err == nil {
		t.Fatal("Ingest acked a batch whose fsync failed")
	}
	if _, err := e.IngestSortedChunks([][]float64{{50}}); err == nil {
		t.Fatal("IngestSortedChunks acked a batch whose fsync failed")
	}
	ffs.FailSyncs(nil)

	after := e.Stats()
	if n, _ := e.Ingest(nil); n != 2 {
		t.Fatalf("rejected batch mutated the history: %d arrivals", n)
	}
	if after.IngestedBatches != before.IngestedBatches || after.WALLastSeq != before.WALLastSeq {
		t.Fatalf("rejected batch advanced counters: before %+v after %+v", before, after)
	}
	// The log recovered in place: the next batch is accepted and the
	// whole acked set survives a restart.
	ingestVia(t, e, false, []float64{60})
	r2, _, _, rep, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if len(rep.Reset) != 0 {
		t.Fatalf("replay reset a log after a recovered fsync failure: %+v", rep.Reset)
	}
	e2, _ := r2.Get("web")
	if n, _ := e2.Ingest(nil); n != 3 {
		t.Fatalf("restart sees %d arrivals, want the 3 acked ones", n)
	}
}

// TestTornWriteTruncatedOnBoot: a write torn mid-record by a crash
// (simulated as a silent partial write — the process "dies" before
// observing the result) must be truncated away at boot, with every
// earlier acknowledged batch intact.
func TestTornWriteTruncatedOnBoot(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS())
	r, _, _, _, _ := walBoot(t, cfg, storeDir, walDir, ffs)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{10, 20})
	ingestVia(t, e, true, []float64{30})
	// The next record loses all but 5 bytes mid-write; the "ack" the
	// caller sees never escapes the dying process.
	ffs.TearNextWrite(5)
	_, _ = e.Ingest([]float64{40, 50})

	r2, _, _, rep, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if rep.Truncations != 1 {
		t.Fatalf("boot did not report the torn tail: %+v", rep)
	}
	e2, _ := r2.Get("web")
	if n, _ := e2.Ingest(nil); n != 3 {
		t.Fatalf("restart sees %d arrivals, want the 3 fully-written ones", n)
	}
	// The repaired log accepts new traffic and survives another cycle.
	ingestVia(t, e2, false, []float64{60})
	r3, _, _, rep3, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if rep3.Truncations != 0 || len(rep3.Reset) != 0 {
		t.Fatalf("second boot after repair not clean: %+v", rep3)
	}
	e3, _ := r3.Get("web")
	if n, _ := e3.Ingest(nil); n != 4 {
		t.Fatalf("second restart sees %d arrivals, want 4", n)
	}
}

// TestBitFlipTruncatesFromCorruption: a flipped bit in an early record
// cuts the log there — later records are gone (their base history is
// unreliable), earlier ones survive, and the boot says so.
func TestBitFlipTruncatesFromCorruption(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	r, _, mgr, _, _ := walBoot(t, cfg, storeDir, walDir, nil)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{10})
	ingestVia(t, e, false, []float64{20})
	ingestVia(t, e, false, []float64{30})
	// Flip one payload bit in the middle of the segment, offline.
	seg := segmentPathOf(t, mgr, "web")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, _, _, rep, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if rep.Truncations != 1 {
		t.Fatalf("boot did not report the corruption: %+v", rep)
	}
	e2, _ := r2.Get("web")
	n, _ := e2.Ingest(nil)
	if n >= 3 {
		t.Fatalf("restart sees %d arrivals — corrupt history served silently", n)
	}
}

// segmentPathOf returns the path of the workload's single on-disk WAL
// segment file.
func segmentPathOf(t *testing.T, mgr *wal.Manager, id string) string {
	t.Helper()
	des, err := os.ReadDir(mgr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), id+"-") {
			continue
		}
		segs, err := os.ReadDir(filepath.Join(mgr.Dir(), de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 {
			t.Fatalf("workload %q has %d segments, want 1", id, len(segs))
		}
		return filepath.Join(mgr.Dir(), de.Name(), segs[0].Name())
	}
	t.Fatalf("no WAL dir for %q", id)
	return ""
}

// TestWALGapResetsLogKeepsSnapshot: replaying a log whose sequence
// numbers don't continue the snapshot (here: a point-in-time restore to
// an older generation with the newer log left in place) must not
// stitch the timelines together — the snapshot wins, the log is reset,
// and the incident is reported for the degraded-boot detail.
func TestWALGapResetsLogKeepsSnapshot(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	r, st, _, _, _ := walBoot(t, cfg, storeDir, walDir, nil)
	st.SetRetain(4)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{10}) // seq 1
	if _, err := r.SnapshotTo(st); err != nil {
		t.Fatal(err) // generation at walSeq 1; WAL truncated
	}
	ingestVia(t, e, false, []float64{20}) // seq 2
	if _, err := r.SnapshotTo(st); err != nil {
		t.Fatal(err) // generation at walSeq 2; WAL truncated
	}
	ingestVia(t, e, false, []float64{30}) // seq 3, WAL only
	ingestVia(t, e, false, []float64{40}) // seq 4, WAL only

	// Disk-level point-in-time restore to the first generation, without
	// resetting the WAL (the mistake the gap check exists to catch):
	// the snapshot says walSeq 1, the log holds records 3 and 4.
	gens := st.Generations()
	if err := st.RestoreGeneration(gens[0].Seq); err != nil {
		t.Fatal(err)
	}

	r2, _, mgr2, rep, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if len(rep.Reset) != 1 || rep.Reset[0].ID != "web" {
		t.Fatalf("gap not reported: %+v", rep)
	}
	e2, _ := r2.Get("web")
	if n, _ := e2.Ingest(nil); n != 1 {
		t.Fatalf("restored history has %d arrivals, want the snapshot's 1", n)
	}
	l, err := mgr2.Log("web")
	if err != nil {
		t.Fatal(err)
	}
	if ls := l.Stats(); ls.Segments != 0 {
		t.Fatalf("gapped log not reset: %+v", ls)
	}
	// The workload keeps working: new ingests log fine and survive.
	ingestVia(t, e2, false, []float64{50})
	r3, _, _, rep3, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if len(rep3.Reset) != 0 {
		t.Fatalf("boot after gap recovery not clean: %+v", rep3)
	}
	e3, _ := r3.Get("web")
	if n, _ := e3.Ingest(nil); n != 2 {
		t.Fatalf("post-recovery restart sees %d arrivals, want 2", n)
	}
}

// TestReloadFromRestoresGenerationAndResetsWAL exercises the runtime
// (admin-endpoint) half of point-in-time restore: RestoreGeneration
// rewires the manifest, ReloadFrom swaps the fleet and resets the logs.
func TestReloadFromRestoresGenerationAndResetsWAL(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	r, st, mgr, _, _ := walBoot(t, cfg, storeDir, walDir, nil)
	st.SetRetain(4)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{10, 20})
	if _, err := r.SnapshotTo(st); err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{30, 40})
	if _, err := r.SnapshotTo(st); err != nil {
		t.Fatal(err)
	}
	gens := st.Generations()
	if err := st.RestoreGeneration(gens[0].Seq); err != nil {
		t.Fatal(err)
	}
	n, err := r.ReloadFrom(st)
	if err != nil || n != 1 {
		t.Fatalf("ReloadFrom = %d, %v", n, err)
	}
	e2, ok := r.Get("web")
	if !ok || e2 == e {
		t.Fatal("reload did not replace the engine")
	}
	if got, _ := e2.Ingest(nil); got != 2 {
		t.Fatalf("reloaded history has %d arrivals, want the restored generation's 2", got)
	}
	l, err := mgr.Log("web")
	if err != nil {
		t.Fatal(err)
	}
	if ls := l.Stats(); ls.Segments != 0 {
		t.Fatalf("reload left the abandoned timeline's WAL in place: %+v", ls)
	}
	// Post-restore traffic is durable on the restored timeline.
	ingestVia(t, e2, false, []float64{50})
	if _, err := r.SnapshotTo(st); err != nil {
		t.Fatal(err)
	}
	r2, _, _, _, _ := walBoot(t, cfg, storeDir, walDir, nil)
	e3, _ := r2.Get("web")
	if got, _ := e3.Ingest(nil); got != 3 {
		t.Fatalf("restart after reload sees %d arrivals, want 3", got)
	}
}

// TestBootQuarantineKeepsFleetServing: an unreadable snapshot file must
// not take the whole fleet down — the bad workload is quarantined and
// reported, the rest boot normally. Covers both store-level corruption
// (bad checksum) and an engine-rejected blob (valid checksum, invalid
// content).
func TestBootQuarantineKeepsFleetServing(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	r, st, _, _, _ := walBoot(t, cfg, storeDir, walDir, nil)
	for _, id := range []string{"web", "api", "batch"} {
		e, err := r.GetOrCreate(id)
		if err != nil {
			t.Fatal(err)
		}
		ingestVia(t, e, false, []float64{10, 20, 30})
	}
	if _, err := r.SnapshotTo(st); err != nil {
		t.Fatal(err)
	}
	// Corrupt api's file on disk (checksum failure at the store layer)
	// and replace batch's blob with one the engine rejects (unsorted
	// arrivals) but the store accepts (checksum is over the bytes).
	files, err := os.ReadDir(filepath.Join(storeDir, store.WorkloadDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range files {
		if strings.HasPrefix(de.Name(), "api-") {
			p := filepath.Join(storeDir, store.WorkloadDir, de.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x40
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := st.Commit([]store.Workload{{ID: "batch", State: []byte(`{"arrivals":[3,2,1]}`)}}, []string{"web", "api"}); err != nil {
		t.Fatal(err)
	}

	r2, st2, _, _, quarantined := walBoot(t, cfg, storeDir, walDir, nil)
	if len(quarantined) != 2 {
		t.Fatalf("quarantined = %+v, want api (corrupt) and batch (rejected)", quarantined)
	}
	ids := map[string]bool{}
	for _, q := range quarantined {
		if q.Reason == "" {
			t.Fatalf("quarantine without a reason: %+v", q)
		}
		ids[q.ID] = true
	}
	if !ids["api"] || !ids["batch"] {
		t.Fatalf("quarantined = %+v, want api and batch", quarantined)
	}
	if _, ok := r2.Get("web"); !ok || r2.Len() != 1 {
		t.Fatalf("survivors = %v, want just web", r2.Workloads())
	}
	if st2.Has("api") || st2.Has("batch") {
		t.Fatal("manifest still names quarantined workloads")
	}
	// The quarantined files are preserved for forensics.
	qdir, err := os.ReadDir(filepath.Join(storeDir, store.QuarantineDir))
	if err != nil || len(qdir) != 2 {
		t.Fatalf("quarantine dir holds %d files, %v; want 2", len(qdir), err)
	}
}

// TestDeleteRemovesWALAndRestartsSequence: deleting a workload drops
// its log; a recreated workload under the same ID starts a fresh
// sequence with no inherited history.
func TestDeleteRemovesWALAndRestartsSequence(t *testing.T) {
	cfg := testConfig(1000)
	storeDir, walDir := t.TempDir(), t.TempDir()
	r, _, mgr, _, _ := walBoot(t, cfg, storeDir, walDir, nil)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e, false, []float64{10, 20})
	if !r.Remove("web") {
		t.Fatal("Remove reported the workload missing")
	}
	des, err := os.ReadDir(mgr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 0 {
		t.Fatalf("WAL dir still holds %d entries after delete", len(des))
	}
	e2, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, e2, false, []float64{99})
	if got := e2.Stats().WALLastSeq; got != 1 {
		t.Fatalf("recreated workload continues old sequence: seq %d", got)
	}
	r2, _, _, rep, _ := walBoot(t, cfg, storeDir, walDir, nil)
	if rep.Records != 1 {
		t.Fatalf("replayed %d records, want just the recreated workload's 1", rep.Records)
	}
	e3, _ := r2.Get("web")
	if n, _ := e3.Ingest(nil); n != 1 {
		t.Fatalf("restart sees %d arrivals, want 1 (the deleted history must stay dead)", n)
	}
}

// TestStalenessThresholdGauge: the alert clock starts when the model
// first falls behind, survives the fresh/stale transitions, and the
// registry counts workloads over the threshold.
func TestStalenessThresholdGauge(t *testing.T) {
	now := 1000.0
	cfg := testConfig(0)
	cfg.Now = func() float64 { return now }
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.SetStalenessThreshold(300)
	e, err := r.GetOrCreate("web")
	if err != nil {
		t.Fatal(err)
	}
	if s := e.modelStalenessSeconds(); s != 0 {
		t.Fatalf("empty workload stale for %gs", s)
	}
	ingestVia(t, e, false, trafficArrivals(1, 600))
	now = 1400 // stale since 1000, age 400 > threshold 300
	if s := e.modelStalenessSeconds(); s != 400 {
		t.Fatalf("staleness = %gs, want 400", s)
	}
	over := 0
	for _, en := range r.snapshot() {
		if en.modelStalenessSeconds() > r.StalenessThreshold() {
			over++
		}
	}
	if over != 1 {
		t.Fatalf("workloads over threshold = %d, want 1", over)
	}
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	if s := e.modelStalenessSeconds(); s != 0 {
		t.Fatalf("freshly trained workload stale for %gs", s)
	}
	if st := e.Stats(); st.ModelStalenessSeconds != 0 {
		t.Fatalf("Stats reports staleness %g after train", st.ModelStalenessSeconds)
	}
	// New traffic re-arms the clock from now, not from the old stamp.
	now = 2000
	ingestVia(t, e, false, []float64{700})
	now = 2100
	if s := e.modelStalenessSeconds(); s != 100 {
		t.Fatalf("staleness after re-arm = %gs, want 100", s)
	}
}
