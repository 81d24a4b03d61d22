// Package server exposes the simulator as an HTTP job service ("morcd"):
// jobs are submitted as JSON specs onto a bounded queue, drained by a
// fixed worker pool, and can be polled, cancelled, and observed through
// Prometheus-style metrics. cmd/morcd is the CLI front-end; package
// client is the typed Go client.
//
// API:
//
//	POST   /v1/jobs                  submit a JobSpec  → 202 JobView (429 when the queue is full)
//	GET    /v1/jobs                  list held jobs    → {"jobs": [JobView...]}
//	GET    /v1/jobs/{id}             job status/result → JobView (410 once evicted)
//	DELETE /v1/jobs/{id}             cancel            → JobView
//	GET    /v1/jobs/{id}/events      SSE stream: epoch/progress/done events
//	GET    /v1/jobs/{id}/timeseries  telemetry series (JSON, ?format=ndjson)
//	GET    /v1/jobs/{id}/trace       span trace export (JSON, ?format=ndjson)
//	GET    /v1/schemes               LLC organizations the simulator implements
//	GET    /v1/workloads             workloads, mixes, and experiments that can run
//	GET    /v1/status                queue/worker/counter snapshot (cluster overview scrapes this)
//	GET    /metrics                  Prometheus text exposition
//	GET    /debug/pprof/             CPU/heap/goroutine profiles, execution traces
//	GET    /debug/vars               expvar (build info, uptime, memstats)
//	GET    /healthz                  liveness
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"morc/internal/exp"
	"morc/internal/obs"
	"morc/internal/sim"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64). Submissions beyond it are rejected with ErrQueueFull
	// so callers see backpressure instead of unbounded memory growth.
	QueueDepth int
	// Logger receives structured request and job-lifecycle logs
	// (default: discard, so embedding the server in tests stays quiet;
	// cmd/morcd passes a real handler).
	Logger *slog.Logger
}

// Submission errors.
var (
	ErrQueueFull    = errors.New("job queue is full")
	ErrShuttingDown = errors.New("server is shutting down")
)

// Server owns the job table, the bounded queue, and the worker pool.
type Server struct {
	workers int
	queue   chan *Job
	metrics *metrics
	log     *slog.Logger
	baseCtx context.Context
	stopAll context.CancelFunc
	wg      sync.WaitGroup

	// Tracing: every job gets a span tree in spans, exportable via
	// GET /v1/jobs/{id}/trace.
	spans  *obs.Store
	tracer *obs.Tracer

	// Rate limit for the SSE-drop warning log (counters still see every
	// drop; only the log line is limited).
	dropMu   sync.Mutex
	lastDrop time.Time

	// The job table holds every queued and running job and the latest
	// MaxFinishedJobs finished ones; finished lists those, oldest first.
	// IDs are sequential, so issued tells an evicted ID from a foreign one.
	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string
	issued   uint64
	closed   bool
}

// sseDropWarnEvery is the minimum gap between SSE-drop warning logs.
const sseDropWarnEvery = 5 * time.Second

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	spans := obs.NewStore(0, 0)
	s := &Server{
		workers: cfg.Workers,
		queue:   make(chan *Job, cfg.QueueDepth),
		metrics: newMetrics(),
		log:     cfg.Logger,
		baseCtx: ctx,
		stopAll: cancel,
		spans:   spans,
		tracer:  obs.NewTracer("morcd", spans),
		jobs:    map[string]*Job{},
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates the spec and enqueues a job, returning it immediately.
// The job gets a fresh trace rooted at its own span.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitTraced(spec, obs.SpanContext{}, false)
}

// SubmitTraced is Submit with trace propagation: parent (extracted from
// a traceparent header, or zero) becomes the job span's parent, and when
// synthesizeClient is set a zero-duration "client.submit" root span is
// recorded for it — CLI clients originate a trace but have nowhere to
// store their own spans, so the server keeps it on their behalf.
func (s *Server) SubmitTraced(spec JobSpec, parent obs.SpanContext, synthesizeClient bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Spans are created before taking s.mu: the tracer has its own lock
	// and must never nest inside the server's.
	if synthesizeClient && parent.Valid() {
		s.tracer.SynthesizeRoot(parent, "client", "client.submit")
	}
	span := s.tracer.StartSpan(parent, "job")
	span.SetAttr("kind", spec.Label())
	queueSp := span.StartSpan("queue")

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		queueSp.End()
		span.SetAttr("status", "rejected")
		span.End()
		return nil, ErrShuttingDown
	}
	job := newJob(JobID("j", s.issued+1), spec, span, queueSp)
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		s.metrics.jobRejected()
		queueSp.End()
		span.SetAttr("status", "rejected")
		span.End()
		return nil, ErrQueueFull
	}
	s.issued++
	s.jobs[job.ID] = job
	s.mu.Unlock()
	s.metrics.jobSubmitted()
	s.log.Info("job queued", "job", job.ID, "kind", spec.Label(),
		"workload", spec.Workload, "mix", spec.Mix, "telemetry", spec.Telemetry,
		"trace", job.TraceID().String())
	return job, nil
}

// Trace exports the job's span tree. ok is false for jobs the table
// does not hold and for traces already evicted from the bounded store.
func (s *Server) Trace(id string) (obs.TraceExport, bool) {
	j, ok := s.Job(id)
	if !ok || j.TraceID().IsZero() {
		return obs.TraceExport{}, false
	}
	return s.spans.Export(j.TraceID())
}

// noteSSEDrops counts epochs that left a job's log before an SSE
// subscriber read them, and emits a rate-limited warning log.
func (s *Server) noteSSEDrops(n int) {
	s.metrics.sseDroppedFrames(n)
	s.dropMu.Lock()
	now := time.Now()
	warn := now.Sub(s.lastDrop) >= sseDropWarnEvery
	if warn {
		s.lastDrop = now
	}
	s.dropMu.Unlock()
	if warn {
		s.log.Warn("SSE subscribers falling behind; dropping telemetry frames",
			"dropped", n, "warn_every", sseDropWarnEvery)
	}
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// find is Job for a request handler: when the table does not hold id
// it answers 404, or 410 for an evicted job, itself.
func (s *Server) find(w http.ResponseWriter, id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	issued := s.issued
	s.mu.Unlock()
	if !ok {
		WriteNoJob(w, id, "j", issued)
	}
	return j, ok
}

// Jobs returns the jobs the table holds, in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return CompareJobIDs(a.ID, b.ID) })
	return out
}

// retire records a finished job, evicting the oldest finished one once
// the table holds more than MaxFinishedJobs.
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	if len(s.finished) > MaxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Cancel requests cancellation of a job; already-terminal jobs are left
// untouched.
func (s *Server) Cancel(j *Job) {
	if fromQueue, _ := j.requestCancel(); fromQueue {
		// Cancelled straight from the queue: no worker will report it.
		s.metrics.jobFinished(StatusCancelled, "", -1)
		s.retire(j.ID)
	}
}

// QueueDepth is the number of jobs waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Workers is the worker-pool size.
func (s *Server) Workers() int { return s.workers }

// worker drains the queue until it is closed by Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job start-to-finish, recording metrics.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	queueWait, ok := j.start(cancel)
	if !ok {
		return // cancelled while queued; Cancel already counted it
	}
	s.metrics.spanObserved("queue", queueWait)
	s.metrics.workerBusy(1)
	defer s.metrics.workerBusy(-1)
	s.log.Info("job started", "job", j.ID, "kind", j.Spec.Label())

	st, res, tables, errMsg := s.execute(ctx, j)
	runDur := j.finish(st, res, tables, errMsg)
	s.metrics.spanObserved("run", runDur)
	if res != nil && res.Sampling != nil {
		s.metrics.sampledJob(len(res.Sampling.Windows), res.Sampling.SpeedupX)
	}
	v := j.View()
	s.metrics.jobFinished(st, j.Spec.Label(), v.DurationSec)
	s.retire(j.ID)
	s.log.Info("job finished", "job", j.ID, "status", string(st),
		"duration_sec", v.DurationSec, "error", errMsg)
}

// execute runs the spec under ctx and maps the outcome to a terminal
// state. Panics in the simulator are contained as job failures so one
// bad configuration cannot take down the server.
func (s *Server) execute(ctx context.Context, j *Job) (st Status, res *sim.Result, tables []*exp.Table, errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			st, res, tables, errMsg = StatusFailed, nil, nil, fmt.Sprint(r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return StatusCancelled, nil, nil, ""
	}
	sp := j.Spec
	if sp.Experiment != "" {
		// Experiment jobs run morcbench's whole-figure pipeline; they
		// check cancellation only before starting (the experiment runner
		// has no context plumbing).
		e, _ := exp.Get(sp.Experiment)
		return StatusDone, nil, e.Run(sp.budget()), ""
	}

	cfg, err := sp.simConfig()
	if err != nil {
		return StatusFailed, nil, nil, err.Error()
	}
	var sys *sim.System
	if sp.Mix != "" {
		sys, err = sim.NewMix(sp.Mix, cfg)
	} else {
		sys, err = sim.NewSingle(sp.Workload, cfg)
	}
	if err != nil {
		return StatusFailed, nil, nil, err.Error()
	}
	sys.OnProgress = j.setProgress
	sys.OnPhase = j.notePhase
	if cfg.Telemetry.Enabled() {
		sys.OnEpoch = j.publishEpoch
	}
	r, err := sys.RunCtx(ctx)
	switch {
	case errors.Is(err, context.Canceled):
		return StatusCancelled, nil, nil, ""
	case err != nil:
		return StatusFailed, nil, nil, err.Error()
	}
	return StatusDone, &r, nil, ""
}

// Shutdown stops accepting jobs and drains the queue and in-flight work.
// If ctx expires first, all still-running jobs are cancelled and the
// pool is waited for (cancellation takes effect within a few thousand
// simulated accesses), then ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.stopAll()
		<-drained
		return ctx.Err()
	}
}
