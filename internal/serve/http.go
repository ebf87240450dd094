package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
)

// Handler returns the server's HTTP API (README "Running as a service"):
//
//	POST /jobs?inject-fault=…      submit a JobSpec, 201 + status
//	GET  /jobs                      list all jobs
//	GET  /jobs/{id}                 one job's status (+ campaign dose ledger)
//	GET  /jobs/{id}/events          Server-Sent Events stream
//	GET  /jobs/{id}/artifacts/{n}   download an artifact (result.json, …)
//	GET  /metrics                   merged per-job Prometheus exposition
//	GET  /healthz                   liveness, drain state, ledger errors
//	POST /drain                     begin a graceful drain
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /drain", s.handleDrain)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck — client gone is client's problem
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: decoding job spec: %w", err))
		return
	}
	st, err := s.Submit(spec, r.URL.Query().Get("inject-fault"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, st)
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's events as SSE: the full backlog first, then
// live events until the client disconnects or the job reaches a terminal
// state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.Events(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: ", e.Type)
			if err := enc.Encode(e); err != nil { // Encode appends the \n
				return
			}
			fmt.Fprint(w, "\n")
			fl.Flush()
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	dir, err := s.JobDir(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	name := r.PathValue("name")
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		writeErr(w, http.StatusBadRequest, errors.New("serve: bad artifact name"))
		return
	}
	http.ServeFile(w, r, filepath.Join(dir, name))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.WriteMetrics(w)
}

// handleHealth reports "ok" or "draining", or "degraded" with the error while
// the last ledger write failed (a restart would replay a stale ledger).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"status": "ok", "free_slots": s.FreeSlots()}
	if s.Draining() {
		body["status"] = "draining"
	}
	if err := s.ledgerErr(); err != nil {
		body["status"] = "degraded"
		body["ledger_error"] = err.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleDrain starts a graceful drain and returns immediately; /healthz
// reports "draining" until the process exits. SIGTERM on cmd/mdserve takes
// the same path.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	go s.Drain()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}
