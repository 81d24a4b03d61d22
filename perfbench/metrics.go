package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Metric is one reported quantity. The catalog below is the single
// source of the names, units and directions that BENCHMARK.json
// declares; a test keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the simulator or the service sees,
// reported on untraced runs (--trace 0) for every workload.
var endToEnd = []Metric{
	{"sim_mips", "MIPS", "higher"},
	{"alloc_bytes_per_instr", "B/instr", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
}

// perLayer are the traced-run metrics (--trace 1), named after the
// module whose calls they time or count. A layer the workload does not
// drive reports 0.
var perLayer = []Metric{
	{"trace.next_ns", "ns/call", "lower"},
	{"trace.mem_ns", "ns/call", "lower"},
	{"trace.accesses", "count", "higher"},
	{"cache.l1_ns", "ns/call", "lower"},
	{"cache.l1_miss_ratio", "frac", "lower"},
	{"cache.llc_read_ns", "ns/call", "lower"},
	{"cache.llc_insert_ns", "ns/call", "lower"},
	{"cache.llc_ratio_ns", "ns/call", "lower"},
	{"core.read_ns", "ns/call", "lower"},
	{"core.insert_ns", "ns/call", "lower"},
	{"core.ratio_ns", "ns/call", "lower"},
	{"core.hit_ratio", "frac", "higher"},
	{"core.log_evictions", "count", "lower"},
	{"lbe.trials", "count", "lower"},
	{"lbe.trials_per_insert", "trials/insert", "lower"},
	{"mem.access_ns", "ns/call", "lower"},
	{"mem.queue_cycles_per_read", "cycles/read", "lower"},
	{"mem.bytes_per_kinstr", "B/kinstr", "lower"},
	{"sim.unattributed_frac", "frac", "lower"},
	{"sim.trace_overhead_frac", "frac", "lower"},
	{"client.submit_ms", "ms", "lower"},
	{"client.retries", "count", "lower"},
	{"cluster.queue_ms", "ms", "lower"},
	{"cluster.dispatch_ms", "ms", "lower"},
	{"cluster.notice_lag_ms", "ms", "lower"},
	{"cluster.peer_requests_per_job", "req/job", "lower"},
	{"cluster.requeues", "count", "lower"},
	{"server.queue_ms", "ms", "lower"},
	{"server.run_ms", "ms", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"server.sse_frames_per_job", "frames/job", "lower"},
	{"obs.dropped_spans", "count", "lower"},
	{"telemetry.epochs_per_job", "epochs/job", "lower"},
}

// outcome is what one benchmark invocation measured: operation counts
// (every output check that fails counts as a failed operation) and
// metric values by name.
type outcome struct {
	Attempted int
	Failed    int
	Values    map[string]float64
	// Notes are human-readable lines printed before the result line
	// (percentile used for the tail, set-up spread, digests).
	Notes []string
}

func newOutcome() *outcome {
	return &outcome{Values: map[string]float64{}}
}

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Notes = append(o.Notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the notes and then, as the last line, the result object
// holding every metric of set (missing values read 0).
func (o *outcome) write(w io.Writer, set []Metric) error {
	for _, n := range o.Notes {
		fmt.Fprintln(w, n)
	}
	line := resultLine{
		Correct:   o.Failed == 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		v := o.Values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// tail returns the highest percentile of xs that has at least beyond
// samples above it, as (value, percentile). With too few samples for
// any such percentile it falls back to the maximum, reported as p100.
func tail(xs []float64, beyond int) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= beyond {
		return s[n-1], 100
	}
	// s[n-1-beyond] has exactly beyond samples above it.
	i := n - 1 - beyond
	return s[i], 100 * float64(i+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
