package server

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// durationBuckets are the job wall-time histogram bounds in seconds.
// Quick single-program runs land around 0.1-1s; full mixes and
// whole-figure experiments run minutes.
var durationBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// spanBuckets are the span-duration histogram bounds in seconds: queue
// waits and response encodes live in the sub-millisecond range, runs up
// in durationBuckets territory.
var spanBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// windowBuckets bound the windows-chosen histogram (sampling schedules
// rarely exceed a few dozen representatives).
var windowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// speedupBuckets bound the instruction-reduction-factor histogram.
var speedupBuckets = []float64{1, 1.5, 2, 3, 5, 8, 12, 20, 50, 100}

// histogram is a fixed-bucket Prometheus-style histogram.
type histogram struct {
	bounds []float64
	counts []uint64 // one per bucket bound; +Inf is implicit via count
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	for i, bound := range h.bounds {
		if v <= bound {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
}

// maxSchemeLabels caps the cardinality of the per-scheme wall-time
// histogram. The label is derived from job specs (scheme names and
// experiment ids), so it is client-influenced; once the cap is reached,
// new labels aggregate under "other" instead of growing the exposition
// without bound.
const maxSchemeLabels = 32

// spanPhases are the fixed span-duration histogram labels. The set is
// closed (unlike scheme labels) so no cardinality cap is needed.
var spanPhases = []string{"queue", "run", "encode"}

// metrics aggregates server counters for the /metrics endpoint.
type metrics struct {
	mu          sync.Mutex
	start       time.Time
	submitted   uint64
	rejected    uint64
	done        uint64
	failed      uint64
	cancelled   uint64
	workersBusy int
	byScheme    map[string]*histogram // job wall time by scheme label
	bySpan      map[string]*histogram // span duration by phase label
	sseDropped  uint64                // epochs an SSE stream missed: they left the job's log first
	sampledJobs uint64                // jobs that ran with interval sampling
	windows     *histogram            // sampling windows replayed per sampled job
	speedup     *histogram            // instruction-reduction factor per sampled job
}

func newMetrics() *metrics {
	bySpan := make(map[string]*histogram, len(spanPhases))
	for _, p := range spanPhases {
		bySpan[p] = newHistogram(spanBuckets)
	}
	return &metrics{
		start:    time.Now(),
		byScheme: map[string]*histogram{},
		bySpan:   bySpan,
		windows:  newHistogram(windowBuckets),
		speedup:  newHistogram(speedupBuckets),
	}
}

func (m *metrics) jobSubmitted() { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *metrics) jobRejected()  { m.mu.Lock(); m.rejected++; m.mu.Unlock() }

func (m *metrics) workerBusy(delta int) {
	m.mu.Lock()
	m.workersBusy += delta
	m.mu.Unlock()
}

// jobFinished records a terminal transition and, for jobs that actually
// ran, the wall time under the scheme label ("exp:<id>" for experiments).
func (m *metrics) jobFinished(st Status, scheme string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch st {
	case StatusDone:
		m.done++
	case StatusFailed:
		m.failed++
	case StatusCancelled:
		m.cancelled++
	}
	if seconds >= 0 && scheme != "" {
		h := m.byScheme[scheme]
		if h == nil {
			if len(m.byScheme) >= maxSchemeLabels {
				scheme = "other"
			}
			if h = m.byScheme[scheme]; h == nil {
				h = newHistogram(durationBuckets)
				m.byScheme[scheme] = h
			}
		}
		h.observe(seconds)
	}
}

// spanObserved records the duration of one job life-cycle phase under a
// fixed label from spanPhases. Unknown labels are dropped rather than
// growing the map.
func (m *metrics) spanObserved(phase string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.bySpan[phase]; h != nil {
		h.observe(d.Seconds())
	}
}

// sseDroppedFrames counts telemetry epochs that left a job's epoch log
// before an SSE stream read them.
func (m *metrics) sseDroppedFrames(n int) {
	m.mu.Lock()
	m.sseDropped += uint64(n)
	m.mu.Unlock()
}

// sampledJob records the sampling schedule a finished job actually ran:
// how many representative windows were replayed and the instruction
// reduction factor versus a full-fidelity run.
func (m *metrics) sampledJob(windows int, speedup float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sampledJobs++
	m.windows.observe(float64(windows))
	if speedup > 0 {
		m.speedup.observe(speedup)
	}
}

// snapshot of counters for tests and /v1/status.
type counters struct {
	Submitted, Rejected, Done, Failed, Cancelled, SSEDropped uint64
}

func (m *metrics) snapshot() counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return counters{m.submitted, m.rejected, m.done, m.failed, m.cancelled, m.sseDropped}
}

func (m *metrics) busy() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.workersBusy
}

func (m *metrics) uptime() time.Duration { return time.Since(m.start) }

// writeHistogram emits one labelled histogram series in exposition order.
func writeHistogram(w io.Writer, name, label, value string, h *histogram) {
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, value, bound, h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, h.count)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, h.sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.count)
}

// writeBareHistogram emits an unlabelled histogram series.
func writeBareHistogram(w io.Writer, name string, h *histogram) {
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bound, h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

// write emits the Prometheus text exposition format (version 0.0.4).
// The page is rendered into a local buffer so the lock is never held
// across a write to dst — a stalled scrape client must not be able to
// block every job-completion path that wants the metrics mutex.
func (m *metrics) write(dst io.Writer, queueDepth, queueCap, workers int) {
	var buf bytes.Buffer
	w := &buf
	m.mu.Lock()

	goVers, modVers := buildVersion()
	fmt.Fprintln(w, "# HELP morcd_build_info Build metadata; the value is always 1.")
	fmt.Fprintln(w, "# TYPE morcd_build_info gauge")
	fmt.Fprintf(w, "morcd_build_info{go_version=%q,module_version=%q} 1\n", goVers, modVers)

	fmt.Fprintln(w, "# HELP morcd_uptime_seconds Seconds since the server started.")
	fmt.Fprintln(w, "# TYPE morcd_uptime_seconds gauge")
	fmt.Fprintf(w, "morcd_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintln(w, "# HELP morcd_go_goroutines Goroutines currently live in the process.")
	fmt.Fprintln(w, "# TYPE morcd_go_goroutines gauge")
	fmt.Fprintf(w, "morcd_go_goroutines %d\n", runtime.NumGoroutine())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintln(w, "# HELP morcd_go_heap_bytes Bytes of allocated heap objects.")
	fmt.Fprintln(w, "# TYPE morcd_go_heap_bytes gauge")
	fmt.Fprintf(w, "morcd_go_heap_bytes %d\n", ms.HeapAlloc)

	fmt.Fprintln(w, "# HELP morcd_jobs_submitted_total Jobs accepted onto the queue.")
	fmt.Fprintln(w, "# TYPE morcd_jobs_submitted_total counter")
	fmt.Fprintf(w, "morcd_jobs_submitted_total %d\n", m.submitted)

	fmt.Fprintln(w, "# HELP morcd_jobs_rejected_total Submissions rejected because the queue was full.")
	fmt.Fprintln(w, "# TYPE morcd_jobs_rejected_total counter")
	fmt.Fprintf(w, "morcd_jobs_rejected_total %d\n", m.rejected)

	fmt.Fprintln(w, "# HELP morcd_jobs_total Jobs finished, by terminal status.")
	fmt.Fprintln(w, "# TYPE morcd_jobs_total counter")
	fmt.Fprintf(w, "morcd_jobs_total{status=\"done\"} %d\n", m.done)
	fmt.Fprintf(w, "morcd_jobs_total{status=\"failed\"} %d\n", m.failed)
	fmt.Fprintf(w, "morcd_jobs_total{status=\"cancelled\"} %d\n", m.cancelled)

	fmt.Fprintln(w, "# HELP morcd_queue_depth Jobs waiting on the queue.")
	fmt.Fprintln(w, "# TYPE morcd_queue_depth gauge")
	fmt.Fprintf(w, "morcd_queue_depth %d\n", queueDepth)

	fmt.Fprintln(w, "# HELP morcd_queue_capacity Queue capacity.")
	fmt.Fprintln(w, "# TYPE morcd_queue_capacity gauge")
	fmt.Fprintf(w, "morcd_queue_capacity %d\n", queueCap)

	fmt.Fprintln(w, "# HELP morcd_workers Worker pool size.")
	fmt.Fprintln(w, "# TYPE morcd_workers gauge")
	fmt.Fprintf(w, "morcd_workers %d\n", workers)

	fmt.Fprintln(w, "# HELP morcd_workers_busy Workers currently running a job.")
	fmt.Fprintln(w, "# TYPE morcd_workers_busy gauge")
	fmt.Fprintf(w, "morcd_workers_busy %d\n", m.workersBusy)

	fmt.Fprintln(w, "# HELP morcd_job_duration_seconds Job wall time by scheme.")
	fmt.Fprintln(w, "# TYPE morcd_job_duration_seconds histogram")
	schemes := make([]string, 0, len(m.byScheme))
	for s := range m.byScheme {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	for _, s := range schemes {
		// observe() increments every bucket whose bound covers the value,
		// so counts are already cumulative as the format requires.
		writeHistogram(w, "morcd_job_duration_seconds", "scheme", s, m.byScheme[s])
	}

	fmt.Fprintln(w, "# HELP morcd_span_duration_seconds Job life-cycle span duration by phase (queue wait, sim run, response encode).")
	fmt.Fprintln(w, "# TYPE morcd_span_duration_seconds histogram")
	for _, p := range spanPhases {
		writeHistogram(w, "morcd_span_duration_seconds", "phase", p, m.bySpan[p])
	}

	fmt.Fprintln(w, "# HELP morcd_sse_dropped_frames_total Telemetry epochs that left a job's epoch log before an SSE stream read them.")
	fmt.Fprintln(w, "# TYPE morcd_sse_dropped_frames_total counter")
	fmt.Fprintf(w, "morcd_sse_dropped_frames_total %d\n", m.sseDropped)

	fmt.Fprintln(w, "# HELP morcd_sampled_jobs_total Jobs that ran with representative-interval sampling.")
	fmt.Fprintln(w, "# TYPE morcd_sampled_jobs_total counter")
	fmt.Fprintf(w, "morcd_sampled_jobs_total %d\n", m.sampledJobs)

	fmt.Fprintln(w, "# HELP morcd_sampling_windows Representative windows replayed per sampled job.")
	fmt.Fprintln(w, "# TYPE morcd_sampling_windows histogram")
	writeBareHistogram(w, "morcd_sampling_windows", m.windows)

	fmt.Fprintln(w, "# HELP morcd_sampling_speedup Instruction-reduction factor per sampled job.")
	fmt.Fprintln(w, "# TYPE morcd_sampling_speedup histogram")
	writeBareHistogram(w, "morcd_sampling_speedup", m.speedup)
	m.mu.Unlock()

	dst.Write(buf.Bytes())
}
