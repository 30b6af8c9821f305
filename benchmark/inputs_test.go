package main

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// requestStreamHash hashes, in issue order, the request bytes a seed
// produces for the workloads whose streams are independent of timing.
func requestStreamHash(seed int64) [32]byte {
	h := sha256.New()
	// ingest_durable: each workload's seeding window and its first batches.
	d := durableStream{id: "dur-0-00", rng: newRand(seed * 1000003), clock: epoch0}
	h.Write(ingestBinary(d.id, d.next(int(durableHistory*durableRate))))
	for i := 0; i < 4; i++ {
		h.Write(ingestBinary(d.id, d.next(durableBatch)))
	}
	// refit_qos: every history and every slide batch.
	const slides = 2
	for _, client := range newRefitWorkloads(seed, slides) {
		for _, w := range client {
			h.Write(w.seedReq)
			for k := 0; k < slides; k++ {
				for _, ts := range w.slideBatches(k) {
					h.Write(ingestBinary(w.id, ts))
				}
			}
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameRequestStream(t *testing.T) {
	if testing.Short() {
		t.Skip("generates sixteen four-day traces three times")
	}
	a, b, other := requestStreamHash(7), requestStreamHash(7), requestStreamHash(8)
	if a != b {
		t.Error("the same seed produced two different request streams")
	}
	if a == other {
		t.Error("seeds 7 and 8 produced the same request stream")
	}
}

// offlineRefit answers one workload's refit_qos requests from a
// reference engine instead of scalerd, filling in what scalerd would
// have returned.
func offlineRefit(t *testing.T, w *refitWorkload, slides int) {
	t.Helper()
	ref, err := newReferenceEngine(refitDt, refitHistory)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ref.ingest(w.span(epoch0, w.histEnd)))
	must(ref.train())
	for k := 0; k < slides; k++ {
		for _, ts := range w.slideBatches(k) {
			must(ref.ingest(ts))
		}
		must(ref.train())
		now := w.slideStart(k + 1)
		for j := 0; j < refitPlans; j++ {
			body, err := ref.planHP(refitTarget, refitSlide, now+float64(j)*refitReplan)
			must(err)
			w.plans = append(w.plans, bytes.Clone(body))
		}
		body, err := ref.forecast(now, now+refitSlide, refitDt)
		must(err)
		w.forecasts = append(w.forecasts, bytes.Clone(body))
	}
}

func offlineScore(t *testing.T, seed int64) (qosScore, *refitWorkload) {
	t.Helper()
	const slides = 3
	w := newRefitWorkloads(seed, slides)[0][0]
	offlineRefit(t, w, slides)
	replay, err := w.replay(slides, subSeed(seed, 200))
	if err != nil {
		t.Fatal(err)
	}
	var score qosScore
	if err := score.add(replay); err != nil {
		t.Fatal(err)
	}
	return score, w
}

// The QoS scores are pure functions of the seed: bit-identical on a
// repeat, different on another seed — and the byte gate accepts what the
// reference engine itself produced.
func TestSameSeedSameQoSScores(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a four-day history three times")
	}
	a, w := offlineScore(t, 7)
	b, _ := offlineScore(t, 7)
	other, _ := offlineScore(t, 8)
	if a != b {
		t.Errorf("same seed, different scores: %+v vs %+v", a, b)
	}
	if a == other {
		t.Errorf("seeds 7 and 8 scored identically: %+v", a)
	}
	if a.queries == 0 || a.hitRate() <= 0 || a.hitRate() > 1 || a.relativeCost() <= 0 || a.wape() <= 0 {
		t.Errorf("implausible scores %+v", a)
	}
	if err := verifyRefitWorkload(w, 3); err != nil {
		t.Errorf("byte gate rejected the reference engine's own output: %v", err)
	}
	w.plans[1] = append(bytes.Clone(w.plans[1][:len(w.plans[1])-2]), " \n"...)
	if err := verifyRefitWorkload(w, 3); err == nil {
		t.Error("byte gate accepted a plan that differs by one byte")
	}
}

// The harness's model of the engine's plan cache: the anchor plan hits
// until the designed misses have filled the cache, which then resets and
// takes the anchor with it.
func TestPlanCacheModelResetsAtCapacity(t *testing.T) {
	q := &queryWorkload{}
	q.resetModel()
	q.modelPlan(true) // priming: a miss that caches the anchor
	for i := 0; i < planCacheCap-1; i++ {
		q.modelPlan(false)
	}
	q.modelPlan(true) // cache holds exactly planCacheCap entries: still a hit
	if q.wantPlanHits != 1 || q.wantPlanMisses != planCacheCap {
		t.Fatalf("before overflow: hits=%d misses=%d", q.wantPlanHits, q.wantPlanMisses)
	}
	q.modelPlan(false) // finds the cache full: clears it, anchor included
	q.modelPlan(true)
	if q.wantPlanHits != 1 || q.wantPlanMisses != planCacheCap+2 || !q.anchorCached || q.cacheEntries != 2 {
		t.Errorf("after overflow: hits=%d misses=%d entries=%d anchor=%v", q.wantPlanHits, q.wantPlanMisses, q.cacheEntries, q.anchorCached)
	}
}
