package server

// Bulk config API:
//
//	PUT /v1/admin/config
//
// applies one partial-config merge to many workloads in a single
// request. Targets are an explicit workload list, a path.Match glob
// over the registered workload IDs, or both (the union). The merge
// document is the same shape PUT /v1/workloads/{id}/config accepts and
// flows through exactly the same path per workload — mergeConfig over
// the workload's current config, then Engine.SetEngineConfig validation
// and version CAS — so a bulk update can not do anything a loop of
// single PUTs could not.
//
// The one deliberate difference: the per-workload "version" CAS token
// is rejected here (400). One version number cannot be a valid base
// for many workloads, and silently applying it to each would turn the
// concurrency guard into a lottery.
//
// The response reports per-workload results; the request itself is
// 200 whenever it was well-formed, even if individual workloads failed
// (a bulk operator needs the full scoreboard, not the first error).
// Explicitly listed workloads that do not exist are reported with code
// 404 — like every non-ingest route, config writes never create
// workloads. Glob targets only ever match existing ones.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"path"
	"sort"

	"robustscaler/internal/engine"
)

type bulkConfigRequest struct {
	Workloads []string        `json:"workloads"`
	Glob      string          `json:"glob"`
	Config    json.RawMessage `json:"config"`
}

// BulkConfigResult is one workload's outcome inside a bulk config
// response.
type BulkConfigResult struct {
	OK bool `json:"ok"`
	// Version is the workload's config version after a successful
	// update (CAS token for follow-up single-workload edits).
	Version int64 `json:"version,omitempty"`
	// Code is the HTTP status this failure would have had on the
	// single-workload route (400 invalid, 404 unknown, 409 conflict).
	Code  int    `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// BulkConfigResponse is the PUT /v1/admin/config response body. The
// fleet router merges one of these per node into a single fleet-wide
// scoreboard of the same shape.
type BulkConfigResponse struct {
	Matched int                         `json:"matched"`
	Updated int                         `json:"updated"`
	Results map[string]BulkConfigResult `json:"results"`
}

func (s *Server) handleBulkConfig(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxConfigBytes))
	dec.DisallowUnknownFields()
	var req bulkConfigRequest
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad bulk config JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Workloads) == 0 && req.Glob == "" {
		http.Error(w, "bulk config needs a target: \"workloads\" list, \"glob\", or both", http.StatusBadRequest)
		return
	}
	if req.Glob != "" {
		if _, err := path.Match(req.Glob, "probe"); err != nil {
			http.Error(w, "bad glob "+req.Glob+": "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if len(req.Config) == 0 {
		http.Error(w, "bulk config needs a \"config\" merge document", http.StatusBadRequest)
		return
	}
	// Vet the document once, against a blank base, so a malformed one
	// fails the request instead of every workload.
	_, version, err := mergeConfig(bytes.NewReader(req.Config), engine.EngineConfig{})
	if err != nil {
		http.Error(w, "bad config JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if version != nil {
		http.Error(w, "\"version\" is a per-workload CAS token and not valid in a bulk update; use PUT /v1/workloads/{id}/config",
			http.StatusBadRequest)
		return
	}

	// Resolve targets. A workload named both explicitly and by the
	// glob is updated once.
	targets := make(map[string]bool) // id -> explicitly listed
	for _, id := range req.Workloads {
		targets[id] = true
	}
	if req.Glob != "" {
		for _, id := range s.reg.Workloads() {
			if ok, _ := path.Match(req.Glob, id); ok {
				if !targets[id] {
					targets[id] = false
				}
			}
		}
	}

	resp := BulkConfigResponse{Results: make(map[string]BulkConfigResult, len(targets))}
	ids := make([]string, 0, len(targets))
	for id := range targets {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic apply order, for logs and tests
	for _, id := range ids {
		e, ok := s.reg.Get(id)
		if !ok {
			resp.Results[id] = BulkConfigResult{Code: http.StatusNotFound, Error: "unknown workload"}
			continue
		}
		resp.Matched++
		merged, _, err := mergeConfig(bytes.NewReader(req.Config), e.EngineConfig())
		var applied engine.EngineConfig
		if err == nil {
			applied, err = e.SetEngineConfig(merged)
		}
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, engine.ErrConflict) {
				// A concurrent single-workload update raced our merge;
				// same surface as the single route — retry.
				code = http.StatusConflict
			}
			resp.Results[id] = BulkConfigResult{Code: code, Error: err.Error()}
			continue
		}
		resp.Updated++
		resp.Results[id] = BulkConfigResult{OK: true, Version: applied.Version}
	}
	s.writeJSON(w, resp)
}
