// Package server exposes the multi-workload scaling engine as an HTTP
// control plane, the shape an operator integrates with a cluster
// autoscaler (e.g. a Kubernetes operator reconciling many scaled
// targets). One process serves any number of independent workloads —
// registries, CI runners, FaaS functions — each with its own arrival
// history, NHPP model and plans, isolated under
//
//	POST   /v1/workloads/{id}/arrivals   record query arrivals (JSON,
//	                                     NDJSON or binary; optionally gzip)
//	POST   /v1/workloads/{id}/train      (re)fit the workload's NHPP model
//	GET    /v1/workloads/{id}/plan       upcoming creation times
//	GET    /v1/workloads/{id}/forecast   predicted intensity
//	GET    /v1/workloads/{id}/recommendation  replica recommendation (pipeline)
//	GET    /v1/workloads/{id}/status     model/ingestion state
//	DELETE /v1/workloads/{id}            drop the workload
//	GET    /v1/workloads                 list workload IDs
//	POST   /v1/admin/snapshot            persist all workloads to the data dir
//	GET    /v1/admin/generations         list retained snapshot generations
//	POST   /v1/admin/restore-generation  point-in-time restore to a retained one
//
// All model state and math live in internal/engine; this package only
// parses requests, routes them to the right Engine in the registry, and
// encodes responses. Plans, forecasts and recommendations are served
// through the autoscaler pipeline's staged seams (internal/pipeline):
// the Analyzer seam for model reads, a per-workload Controller for the
// Collect → Analyze → Optimize → Actuate recommendation path.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"

	"robustscaler/internal/engine"
	"robustscaler/internal/metrics"
	"robustscaler/internal/pipeline"
	"robustscaler/internal/store"
)

// Config parameterizes the control plane; it is the engine configuration
// shared by every workload.
type Config = engine.Config

// DefaultConfig returns a production-shaped configuration.
func DefaultConfig() Config { return engine.DefaultConfig() }

// Server is the HTTP control plane over a workload registry. It is safe
// for concurrent use.
type Server struct {
	reg *engine.Registry
	// st is the open snapshot store operator-triggered and
	// delete-triggered snapshots commit into; nil disables the admin
	// snapshot endpoint. Set once before serving (SetStore/SetDataDir).
	st *store.Store
	// maxIngestBytes caps one arrivals body, compressed and decompressed
	// alike; ≤0 disables the cap. Set once before serving
	// (SetMaxIngestBytes); defaults to DefaultMaxIngestBytes.
	maxIngestBytes int64
	// metrics is the process-wide observability registry behind GET
	// /metrics: the engine fleet's aggregates are registered at New, the
	// store's at SetStore, and the HTTP layer's per-route series when
	// the mux is built.
	metrics *metrics.Registry
	// encodeFailures counts responses whose JSON encoding failed after
	// the status line was committed (client gone, or an unencodable
	// value) — the failures writeJSON used to swallow.
	encodeFailures *metrics.Counter
	// ingestEvents counts accepted arrival timestamps by wire format;
	// unlike the per-engine counters these survive workload deletion.
	ingestEvents map[string]*metrics.Counter
	// boot carries what restore-on-boot had to give up on: quarantined
	// snapshot files and write-ahead logs reset over timeline mismatches.
	// Set once before serving (SetBootDegraded); nil means a clean boot.
	boot *bootReport
	// pipelines multiplexes the per-workload autoscaler controllers the
	// plan/forecast/recommendation routes run through. The actuation
	// backend defaults to dry-run; SetActuator swaps it before traffic.
	pipelines *pipeline.Manager
}

// bootReport is the degraded-boot detail /healthz exposes.
type bootReport struct {
	Quarantined []store.Quarantined    `json:"quarantined,omitempty"`
	WALReset    []engine.WALResetIssue `json:"wal_reset,omitempty"`
}

// New creates a Server with an empty workload registry and a live
// metrics registry already instrumented over it.
func New(cfg Config) (*Server, error) {
	reg, err := engine.NewRegistry(cfg)
	if err != nil {
		return nil, err
	}
	m := metrics.NewRegistry()
	reg.Instrument(m)
	s := &Server{reg: reg, maxIngestBytes: DefaultMaxIngestBytes, metrics: m}
	s.pipelines = pipeline.NewManager(reg, nil)
	s.pipelines.Instrument(m)
	s.encodeFailures = m.Counter("robustscaler_response_encode_failures_total",
		"Responses whose body could not be fully written after the status was sent (truncated reply: vanished client or encode error).")
	s.ingestEvents = map[string]*metrics.Counter{}
	for _, format := range []string{"json", "ndjson", "binary"} {
		s.ingestEvents[format] = m.Counter("robustscaler_ingest_events_total",
			"Arrival timestamps accepted over HTTP, by wire format (gzip variants included).",
			metrics.Label{Name: "format", Value: format})
	}
	return s, nil
}

// SetMaxIngestBytes caps one arrivals request body (413 beyond it); n
// ≤ 0 removes the cap. Call it once at startup, before the handler
// serves traffic.
func (s *Server) SetMaxIngestBytes(n int64) { s.maxIngestBytes = n }

// Registry exposes the workload registry, e.g. to start a background
// retrainer or snapshotter over it.
func (s *Server) Registry() *engine.Registry { return s.reg }

// Pipelines exposes the autoscaler pipeline manager, e.g. to start the
// background actuation loop over it.
func (s *Server) Pipelines() *pipeline.Manager { return s.pipelines }

// SetActuator selects the pipeline actuation backend: "dryrun" (the
// default — decisions are recorded, nothing is created) or "sim" (an
// in-process simulated cluster that models instance startup with the
// workload's pending time). Call it once at startup, before traffic;
// controllers already created keep their backend.
func (s *Server) SetActuator(mode string) error {
	switch mode {
	case "", "dryrun":
		s.pipelines.SetActuatorFactory(nil)
	case "sim":
		s.pipelines.SetActuatorFactory(func(id string, e *engine.Engine) pipeline.Actuator {
			return pipeline.NewSimCluster(e.EngineConfig().Pending)
		})
	default:
		return fmt.Errorf("unknown actuator %q (want dryrun or sim)", mode)
	}
	return nil
}

// SetStore enables persistence side effects (the POST /v1/admin/
// snapshot endpoint, durable deletes), committing into st, and
// registers the store's metrics. Call it once at startup, before the
// handler serves traffic; nil (the default) keeps them disabled.
func (s *Server) SetStore(st *store.Store) {
	s.st = st
	if st != nil {
		st.Instrument(s.metrics)
	}
}

// SetDataDir is SetStore over a freshly opened store in dir.
func (s *Server) SetDataDir(dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	s.SetStore(st)
	return nil
}

// SetBootDegraded records what restore-on-boot quarantined or reset so
// /healthz can report a degraded (but serving) process. Call it once at
// startup, before the handler serves traffic; empty slices leave the
// boot clean.
func (s *Server) SetBootDegraded(quarantined []store.Quarantined, walReset []engine.WALResetIssue) {
	if len(quarantined) == 0 && len(walReset) == 0 {
		return
	}
	s.boot = &bootReport{Quarantined: quarantined, WALReset: walReset}
}

// Response shapes are the engine's JSON-tagged types.
type (
	trainResponse  = engine.TrainInfo
	planResponse   = engine.Plan
	forecastPoint  = engine.ForecastPoint
	statusResponse = engine.Status
)

// PlanEntry is one planned instance creation.
type PlanEntry = engine.PlanEntry

// engineHandler is a route body that already has its workload resolved.
type engineHandler func(w http.ResponseWriter, r *http.Request, e *engine.Engine)

// Handler returns the HTTP routes, each wrapped in the request-metrics
// middleware under its mux pattern (so the `route` label is the
// "METHOD /path/{id}" template, never a concrete workload ID).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("GET /healthz", s.handleHealth)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /v1/workloads", s.handleList)
	handle("DELETE /v1/workloads/{id}", s.handleDelete)
	handle("POST /v1/workloads/{id}/arrivals", func(w http.ResponseWriter, r *http.Request) {
		s.handleArrivals(w, r, r.PathValue("id"))
	})
	handle("POST /v1/workloads/{id}/train", s.workload(s.handleTrain))
	handle("GET /v1/workloads/{id}/plan", s.workload(s.handlePlan))
	handle("GET /v1/workloads/{id}/forecast", s.workload(s.handleForecast))
	handle("GET /v1/workloads/{id}/recommendation", s.workload(s.handleRecommendation))
	handle("GET /v1/workloads/{id}/status", s.workload(s.handleStatus))
	handle("GET /v1/workloads/{id}/stats", s.workload(s.handleStats))
	handle("GET /v1/workloads/{id}/config", s.workload(s.handleConfigGet))
	handle("PUT /v1/workloads/{id}/config", s.workload(s.handleConfigPut))
	handle("PUT /v1/admin/config", s.handleBulkConfig)
	handle("POST /v1/admin/snapshot", s.handleSnapshot)
	handle("GET /v1/admin/generations", s.handleGenerations)
	handle("POST /v1/admin/restore-generation", s.handleRestoreGeneration)
	return mux
}

// workload resolves the {id} path segment without creating anything: an
// unknown workload is a 404, not a registration. Only a valid arrivals
// POST brings a workload into existence (handleArrivals), so typo'd
// trains, scanning GETs and garbage bodies never grow the registry or
// resurrect deleted workloads.
func (s *Server) workload(h engineHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := s.reg.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown workload", http.StatusNotFound)
			return
		}
		h(w, r, e)
	}
}

// handleHealth reports process health. Liveness alone is not health:
// with persistence enabled, a snapshot pipeline that keeps failing
// means a restart loses state, so consecutive snapshot failures turn
// the report into 503 "degraded" (with the failure detail inline) and
// an orchestrator's health check can act before the data loss happens.
// Boot-time casualties — quarantined snapshot files, write-ahead logs
// reset over timeline mismatches — also mark the report "degraded",
// but with a 200: a restart cannot fix them (the same files are still
// bad), so a 503 would only crash-loop the process while the healthy
// workloads could have been serving. Without a store there is nothing
// to degrade and the check is plain liveness.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"status": "ok"}
	if s.boot != nil {
		resp["status"] = "degraded"
		resp["boot"] = s.boot
	}
	if s.st != nil {
		h := s.reg.SnapshotHealth()
		resp["persistence"] = h
		if h.ConsecutiveFailures > 0 {
			resp["status"] = "degraded"
			s.writeJSONStatus(w, http.StatusServiceUnavailable, resp)
			return
		}
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	ids := s.reg.Workloads()
	if ids == nil {
		ids = []string{}
	}
	s.writeJSON(w, map[string]any{"workloads": ids})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Remove(r.PathValue("id")) {
		http.Error(w, "unknown workload", http.StatusNotFound)
		return
	}
	resp := map[string]any{"deleted": true}
	if s.st != nil {
		// Make the delete durable right away: otherwise a restart before
		// the next snapshot tick would resurrect the workload from the
		// stale snapshot. The in-memory delete stands either way, but a
		// persistence failure means exactly that resurrection is still
		// possible — surface it as a 500 (deleted:true in the body says
		// the in-memory half happened) instead of burying persisted:false
		// inside a 200 no automation would read.
		if _, err := s.reg.SnapshotTo(s.st); err != nil {
			resp["persisted"] = false
			resp["persist_error"] = err.Error()
			s.writeJSONStatus(w, http.StatusInternalServerError, resp)
			return
		}
		resp["persisted"] = true
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request, e *engine.Engine) {
	info, err := e.Train()
	if err != nil {
		httpError(w, err)
		return
	}
	s.writeJSON(w, info)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, e *engine.Engine) {
	// Model reads go through the pipeline's Analyzer seam, which the
	// engine satisfies directly.
	az := s.pipelines.For(r.PathValue("id"), e).Analyzer()
	q := r.URL.Query()
	req := engine.PlanRequest{Variant: q.Get("variant")}
	// Requests that omit target/horizon fall back to the workload's own
	// configured defaults (PUT /config), not a fleet-wide constant.
	ec := az.EngineConfig()
	defTarget := ec.HPTarget
	switch req.Variant {
	case "rt":
		defTarget = ec.RTTarget
	case "cost":
		defTarget = ec.CostTarget
	}
	var err error
	if req.Target, err = floatParam(q.Get("target"), defTarget); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Horizon, err = floatParam(q.Get("horizon"), ec.PlanHorizon); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if raw := q.Get("now"); raw != "" {
		if req.Now, err = floatParam(raw, 0); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.HasNow = true
	}
	// A repeated round comes back as the engine's cached body — one
	// Write, no re-encode. A first request streams the plan instead:
	// the engine keeps a body only for keys served twice. Both paths
	// send the same bytes.
	body, plan, err := az.PlanJSON(req)
	if err != nil {
		httpError(w, err)
		return
	}
	if body == nil {
		s.writeJSON(w, plan)
		return
	}
	s.writeBody(w, body)
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request, e *engine.Engine) {
	az := s.pipelines.For(r.PathValue("id"), e).Analyzer()
	q := r.URL.Query()
	dt := az.EngineConfig().Dt
	// A defaulted from snaps to the clock's Dt/4 slot, as a clock-anchored
	// plan does, so a dashboard polling without from hits the cache.
	from, err := floatParam(q.Get("from"), engine.ClockSlot(az.Now(), dt))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	to, err := floatParam(q.Get("to"), from+3600)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	step, err := floatParam(q.Get("step"), dt)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The engine caches the rendered body next to the points, so the
	// steady state of a polling dashboard is a map hit plus one Write —
	// no per-request re-marshal. The bytes match writeJSON output.
	body, err := az.ForecastJSON(from, to, step)
	if err != nil {
		httpError(w, err)
		return
	}
	s.writeBody(w, body)
}

// handleRecommendation runs one full Collect → Analyze → Optimize pass
// and returns the decision with its inputs and the behavior or window
// that clamped it. The decision is recorded in the workload's
// stabilization history (a served recommendation is a decision the
// anti-flapping window must see) but is not actuated and does not
// delay the next background step — only the background loop applies
// decisions.
func (s *Server) handleRecommendation(w http.ResponseWriter, r *http.Request, e *engine.Engine) {
	rec, err := s.pipelines.For(r.PathValue("id"), e).Recommend()
	if err != nil {
		httpError(w, err)
		return
	}
	s.writeJSON(w, rec)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, e *engine.Engine) {
	s.writeJSON(w, e.Status())
}

// handleSnapshot persists every workload on operator demand — the
// manual counterpart of the background snapshotter, e.g. right before a
// planned deploy. 409 when persistence is not configured, so automation
// can distinguish "disabled" from "failed".
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.st == nil {
		http.Error(w, "snapshots disabled: start scalerd with -data-dir", http.StatusConflict)
		return
	}
	stats, err := s.reg.SnapshotTo(s.st)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, map[string]any{
		"workloads": stats.Total,
		"written":   stats.Written,
		"unchanged": stats.Kept,
		"dir":       s.st.Dir(),
	})
}

// handleGenerations lists the retained snapshot generations an operator
// can roll back to — newest last, the current one flagged.
func (s *Server) handleGenerations(w http.ResponseWriter, _ *http.Request) {
	if s.st == nil {
		http.Error(w, "snapshots disabled: start scalerd with -data-dir", http.StatusConflict)
		return
	}
	gens := s.st.Generations()
	if gens == nil {
		gens = []store.GenerationInfo{}
	}
	s.writeJSON(w, map[string]any{"generations": gens})
}

// handleRestoreGeneration rolls the whole fleet back to a retained
// snapshot generation: the store's manifest is repointed on disk, then
// every in-memory engine is rebuilt from it and the write-ahead logs
// are reset (their records describe the abandoned timeline). Traffic
// accepted after the restore is durable as usual. The restore itself
// advances the generation sequence, so a mistaken rollback is undoable
// through the same endpoint while the overwritten generation is still
// retained.
func (s *Server) handleRestoreGeneration(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		http.Error(w, "snapshots disabled: start scalerd with -data-dir", http.StatusConflict)
		return
	}
	var req struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if req.Generation == 0 {
		http.Error(w, `missing "generation"`, http.StatusBadRequest)
		return
	}
	if err := s.st.RestoreGeneration(req.Generation); err != nil {
		code := http.StatusInternalServerError
		if strings.Contains(err.Error(), "no retained generation") {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	restored, err := s.reg.ReloadFrom(s.st)
	if err != nil {
		// The disk rollback took but the in-memory reload didn't: the
		// process is now serving state that disagrees with the manifest.
		// Report loudly; the operator restarts (boot reloads the manifest).
		http.Error(w, fmt.Sprintf("generation restored on disk but reload failed (restart to converge): %v", err), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, map[string]any{
		"restored_generation": req.Generation,
		"workloads":           restored,
	})
}

// httpError maps engine errors onto HTTP statuses: missing data/model →
// 409 (train first), invalid parameters → 400, anything else → 500.
func httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrNoData), errors.Is(err, engine.ErrNoModel):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, engine.ErrInvalid):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func floatParam(raw string, def float64) (float64, error) {
	if raw == "" {
		return def, nil
	}
	// ParseFloat accepts "NaN"/"Inf"; a NaN sails through every range
	// check downstream (all comparisons false), so reject non-finite
	// values here.
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad numeric parameter %q", raw)
	}
	return v, nil
}

// writeJSON encodes a 200 response body. Encode errors cannot change
// the status line (it is already on the wire), but they are not
// swallowed either: each one is counted and logged, so a truncated
// response — a vanished client, or an unencodable value — shows up in
// /metrics instead of disappearing.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	s.writeJSONStatus(w, http.StatusOK, v)
}

// writeBody sends a pre-rendered 200 JSON body. A failed Write is
// counted and logged like writeJSON's encode failures.
func (s *Server) writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		s.encodeFailures.Inc()
		log.Printf("server: writing response failed (response truncated): %v", err)
	}
}

// writeJSONStatus is writeJSON with an explicit status code.
func (s *Server) writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeFailures.Inc()
		log.Printf("server: encoding %d response failed (response truncated): %v", code, err)
	}
}
