package server

// Per-workload config API:
//
//	GET /v1/workloads/{id}/config   the workload's current EngineConfig
//	PUT /v1/workloads/{id}/config   update any subset of its fields
//
// PUT is a merge and accepts any subset of the GET document: fields
// present in the body replace the current values, fields absent keep
// them, and unknown fields are a 400 (a typo'd knob must not silently
// no-op). The optional "version" field is
// an optimistic-concurrency token — when present it must match the
// workload's current config version or the update is rejected with 409,
// so two operators editing the same workload cannot silently stomp each
// other. Validation failures are 400s and leave the config untouched.
//
// A workload must exist to be configured (404 otherwise): like every
// non-ingest route, config reads and writes never create workloads —
// only a valid arrivals POST does. New workloads start from the fleet
// defaults (scalerd's flags); tune them after the first ingest.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"robustscaler/internal/engine"
)

// maxConfigBytes caps a PUT config body; the document is a handful of
// scalars, so anything past 1 MiB is garbage or an attack.
const maxConfigBytes = 1 << 20

// mergeConfig decodes a partial config document over cur and returns the
// result: encoding/json leaves fields the document does not name alone,
// so engine.EngineConfig is the only schema and every knob it has is
// settable. Shared by the single-workload PUT and the bulk admin
// endpoint, so "what a partial config document means" has exactly one
// definition. version is the document's explicit "version" (the CAS
// token), nil when absent; the returned config keeps cur's. Validation
// and the version CAS happen inside Engine.SetEngineConfig.
func mergeConfig(doc io.Reader, cur engine.EngineConfig) (merged engine.EngineConfig, version *int64, err error) {
	// cur is a shallow copy of the live config: decode into a private
	// backing array, never the one the engine still reads.
	cur.Train.CandidatePeriods = slices.Clone(cur.Train.CandidatePeriods)
	// The outer Version shadows EngineConfig's, so "version" lands in the
	// pointer (absent vs explicit 0) and everything else in cur.
	target := struct {
		Version *int64 `json:"version"`
		*engine.EngineConfig
	}{EngineConfig: &cur}
	dec := json.NewDecoder(doc)
	dec.DisallowUnknownFields() // a typo'd knob must not silently no-op
	if err := dec.Decode(&target); err != nil {
		return engine.EngineConfig{}, nil, err
	}
	if len(cur.Train.CandidatePeriods) == 0 {
		// "candidate_periods": [] resets the knob to the unrestricted default.
		cur.Train.CandidatePeriods = nil
	}
	return cur, target.Version, nil
}

func (s *Server) handleConfigGet(w http.ResponseWriter, _ *http.Request, e *engine.Engine) {
	s.writeJSON(w, e.EngineConfig())
}

func (s *Server) handleConfigPut(w http.ResponseWriter, r *http.Request, e *engine.Engine) {
	cur := e.EngineConfig()
	merged, version, err := mergeConfig(http.MaxBytesReader(w, r.Body, maxConfigBytes), cur)
	if err != nil {
		http.Error(w, "bad config JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if version != nil && *version != cur.Version {
		http.Error(w, fmt.Sprintf("config version conflict: update carries version %d, current is %d; re-read and retry",
			*version, cur.Version), http.StatusConflict)
		return
	}
	applied, err := e.SetEngineConfig(merged)
	if err != nil {
		if errors.Is(err, engine.ErrConflict) {
			// A concurrent update landed between our read and the swap.
			// Without an explicit version the client asked for "apply over
			// whatever is there", but we cannot honor that blindly — the
			// merge base is gone — so surface the race for a retry.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		httpError(w, err)
		return
	}
	s.writeJSON(w, applied)
}
