package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"morc/internal/exp"
	"morc/internal/obs"
	"morc/internal/sim"
	"morc/internal/trace"
)

// Handler returns the HTTP API for the server, wrapped in the
// structured-access-log middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/timeseries", s.handleTimeseries)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/schemes", HandleSchemes)
	mux.HandleFunc("GET /v1/workloads", HandleWorkloads)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	registerDebug(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return s.logRequests(mux)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// WriteJSON writes v as indented JSON with status code. It and the
// other exported writers here are shared with the cluster coordinator,
// which serves the same /v1/jobs API.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the JSON error envelope with status code.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, apiError{Error: err.Error()})
}

// MaxFinishedJobs bounds the finished jobs a job table holds, morcd's
// and the coordinator's alike: beyond it the job that finished first is
// evicted. It matches the span store's trace bound.
const MaxFinishedJobs = obs.DefaultMaxTraces

// JobID is the n-th sequential job ID a service issues: prefix, then n
// zero-padded to six digits.
func JobID(prefix string, n uint64) string {
	d := strconv.FormatUint(n, 10)
	if len(d) < 6 {
		d = "000000"[len(d):] + d
	}
	return prefix + d
}

// CompareJobIDs orders IDs made by JobID as they were issued: shorter
// first (n past 999999 grows the ID), then lexically.
func CompareJobIDs(a, b string) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
}

// WriteNoJob answers a request naming a job the table does not hold:
// 410 when the service issued the ID (one of the first issued JobIDs
// with prefix) and the job has since been evicted, 404 otherwise.
func WriteNoJob(w http.ResponseWriter, id, prefix string, issued uint64) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, prefix), 10, 64)
	if err == nil && n >= 1 && n <= issued && JobID(prefix, n) == id {
		WriteError(w, http.StatusGone, fmt.Errorf(
			"job %s was evicted: only the latest %d finished jobs are kept", id, MaxFinishedJobs))
		return
	}
	WriteError(w, http.StatusNotFound, errors.New("no such job"))
}

// ServeSubmit is POST /v1/jobs: it decodes the spec strictly, hands it
// to submit with the caller's trace context, and answers 202 with the
// job's view, or 429 (with Retry-After), 503 or 400 for submit's error.
// A traceparent header links the job into the caller's trace: the
// coordinator propagates its dispatch span, CLI clients additionally
// mark tracestate so their submit span is synthesized server-side.
func ServeSubmit(w http.ResponseWriter, r *http.Request, submit func(spec JobSpec, parent obs.SpanContext, synthesizeClient bool) (JobView, error)) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	parent, _ := obs.Extract(r.Header)
	v, err := submit(spec, parent, obs.ClientMarked(r.Header))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		WriteError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
	default:
		WriteJSON(w, http.StatusAccepted, v)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ServeSubmit(w, r, func(spec JobSpec, parent obs.SpanContext, synthesizeClient bool) (JobView, error) {
		j, err := s.SubmitTraced(spec, parent, synthesizeClient)
		if err != nil {
			return JobView{}, err
		}
		return j.View(), nil
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	WriteJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.find(w, r.PathValue("id"))
	if !ok {
		return
	}
	// Result payloads can be large (full telemetry series, experiment
	// tables); encode time is part of the user-visible latency and gets
	// its own histogram phase.
	t0 := time.Now()
	WriteJSON(w, http.StatusOK, j.View())
	s.metrics.spanObserved("encode", time.Since(t0))
}

// handleTrace serves GET /v1/jobs/{id}/trace: the job's span tree as
// indented JSON, or NDJSON (one span per line) with ?format=ndjson.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.find(w, r.PathValue("id"))
	if !ok {
		return
	}
	te, ok := s.Trace(j.ID)
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("no trace for job (evicted from the bounded store)"))
		return
	}
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		te.WriteNDJSON(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	te.WriteJSON(w)
}

// StatusView is the GET /v1/status snapshot: one scrape-friendly JSON
// object with queue/worker occupancy and lifetime job counters. The
// cluster coordinator's /v1/cluster/overview aggregates these across
// peers.
type StatusView struct {
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Workers       int     `json:"workers"`
	WorkersBusy   int     `json:"workers_busy"`
	Submitted     uint64  `json:"jobs_submitted"`
	Rejected      uint64  `json:"jobs_rejected"`
	Done          uint64  `json:"jobs_done"`
	Failed        uint64  `json:"jobs_failed"`
	Cancelled     uint64  `json:"jobs_cancelled"`
	SSEDropped    uint64  `json:"sse_dropped_frames"`
	UptimeSec     float64 `json:"uptime_sec"`
}

// Status snapshots the server for GET /v1/status.
func (s *Server) Status() StatusView {
	c := s.metrics.snapshot()
	return StatusView{
		QueueDepth:    s.QueueDepth(),
		QueueCapacity: cap(s.queue),
		Workers:       s.workers,
		WorkersBusy:   s.metrics.busy(),
		Submitted:     c.Submitted,
		Rejected:      c.Rejected,
		Done:          c.Done,
		Failed:        c.Failed,
		Cancelled:     c.Cancelled,
		SSEDropped:    c.SSEDropped,
		UptimeSec:     s.metrics.uptime().Seconds(),
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.find(w, r.PathValue("id"))
	if !ok {
		return
	}
	s.Cancel(j)
	WriteJSON(w, http.StatusOK, j.View())
}

// Catalog enumerates everything the server can run; served by
// /v1/workloads so clients never hardcode what morcsim used to.
type Catalog struct {
	Workloads   []string `json:"workloads"`
	Mixes       []string `json:"mixes"`
	Experiments []string `json:"experiments"`
}

// HandleSchemes serves GET /v1/schemes. It is stateless and exported
// so a cluster coordinator answers catalog queries without forwarding
// them to a peer.
func HandleSchemes(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(sim.AllSchemes()))
	for _, sch := range sim.AllSchemes() {
		names = append(names, sch.String())
	}
	WriteJSON(w, http.StatusOK, struct {
		Schemes []string `json:"schemes"`
	}{names})
}

// HandleWorkloads serves GET /v1/workloads; see HandleSchemes for why
// it is exported.
func HandleWorkloads(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Catalog{
		Workloads:   trace.SingleProgramWorkloads(),
		Mixes:       trace.MixNames(),
		Experiments: exp.IDs(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.QueueDepth(), cap(s.queue), s.workers)
}
