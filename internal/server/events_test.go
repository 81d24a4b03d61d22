package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"morc/internal/sim"
	"morc/internal/telemetry"
)

// telemetrySpec is a tiny telemetry-enabled job: the quick budget's 400k
// measured instructions on a 50k grid yield ~8 epochs.
func telemetrySpec(scheme sim.Scheme) JobSpec {
	return JobSpec{Workload: "gcc", Scheme: scheme, Telemetry: 50_000}
}

// sseEvent is one parsed frame from the events stream.
type sseEvent struct {
	name string
	data []byte
}

// readSSE consumes the stream until a "done" event or EOF.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

func TestEventsStreamsEpochsAndDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, v := postJob(t, ts, telemetrySpec(sim.MORC))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	subscribe := func() *http.Response {
		t.Helper()
		es, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { es.Body.Close() })
		return es
	}
	es, alongside := subscribe(), subscribe()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	events := readSSE(t, es)
	// A stream read alongside this one, and one opened after done, carry
	// the same epoch frames.
	for _, other := range []*http.Response{alongside, subscribe()} {
		if a, b := epochFrames(events), epochFrames(readSSE(t, other)); !slices.Equal(a, b) {
			t.Fatalf("streams disagree on epochs:\n%q\nvs\n%q", a, b)
		}
	}

	var epochs []telemetry.Epoch
	var progress, done int
	for _, e := range events {
		switch e.name {
		case "epoch":
			var ep telemetry.Epoch
			if err := json.Unmarshal(e.data, &ep); err != nil {
				t.Fatalf("bad epoch event %s: %v", e.data, err)
			}
			epochs = append(epochs, ep)
		case "progress":
			progress++
		case "done":
			done++
			var ev eventProgress
			if err := json.Unmarshal(e.data, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Status != StatusDone || ev.Progress != 1 {
				t.Fatalf("done event %+v", ev)
			}
		}
	}
	if done != 1 || progress == 0 {
		t.Fatalf("stream carried %d done and %d progress events", done, progress)
	}
	if len(epochs) < 2 {
		t.Fatalf("stream carried %d epochs, want several", len(epochs))
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i].EndInstr <= epochs[i-1].EndInstr {
			t.Fatalf("epoch stamps not increasing: %d then %d", epochs[i-1].EndInstr, epochs[i].EndInstr)
		}
	}
}

// epochFrames returns the data of a stream's epoch frames.
func epochFrames(events []sseEvent) []string {
	var out []string
	for _, e := range events {
		if e.name == "epoch" {
			out = append(out, string(e.data))
		}
	}
	return out
}

func TestEventsForJobWithoutTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v := postJob(t, ts, JobSpec{Workload: "gcc", Scheme: sim.Uncompressed})
	es, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	events := readSSE(t, es)
	for _, e := range events {
		if e.name == "epoch" {
			t.Fatal("telemetry-free job streamed an epoch")
		}
	}
	if last := events[len(events)-1]; last.name != "done" {
		t.Fatalf("stream ended with %q, want done", last.name)
	}
}

func TestEventsUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
}

func TestTimeseriesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v := postJob(t, ts, telemetrySpec(sim.SC2))
	final := pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var series telemetry.Series
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	if err := series.Validate(); err != nil {
		t.Fatal(err)
	}
	if series.Scheme != "SC2" || len(series.Epochs) == 0 {
		t.Fatalf("series %q with %d epochs", series.Scheme, len(series.Epochs))
	}
	// The served series is the exact final one: its weighted mean ratio
	// reproduces the job result's CompRatio.
	if got := series.MeanRatio(); math.Abs(got-final.Result.CompRatio) > 1e-6 {
		t.Fatalf("series mean ratio %v != result CompRatio %v", got, final.Result.CompRatio)
	}

	// NDJSON rendering: header line + one line per epoch.
	nd, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/timeseries?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Body.Close()
	sc := bufio.NewScanner(nd.Body)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != len(series.Epochs)+1 {
		t.Fatalf("%d NDJSON lines for %d epochs", lines, len(series.Epochs))
	}
}

func TestTimeseriesWithoutTelemetryIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v := postJob(t, ts, JobSpec{Workload: "gcc", Scheme: sim.Uncompressed})
	pollUntil(t, ts, v.ID, 30*time.Second, func(v JobView) bool { return v.Status.Terminal() })
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
}

func TestTelemetryRejectedForExperiments(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _ := postJob(t, ts, JobSpec{Experiment: "fig6", Telemetry: 1000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
}

func TestDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"morcd_build", "morcd_uptime_seconds", "memstats"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
		}
	}
}

func TestMetricsRuntimeGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	text := metricsText(t, ts)
	for _, metric := range []string{
		"morcd_build_info{go_version=",
		"morcd_uptime_seconds",
		"morcd_go_goroutines",
		"morcd_go_heap_bytes",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}

func TestSchemeLabelCardinalityCap(t *testing.T) {
	m := newMetrics()
	for i := 0; i < maxSchemeLabels+20; i++ {
		m.jobFinished(StatusDone, fmt.Sprintf("exp:synthetic-%d", i), 0.1)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The cap plus the "other" overflow bucket.
	if len(m.byScheme) > maxSchemeLabels+1 {
		t.Fatalf("%d scheme labels, cap %d", len(m.byScheme), maxSchemeLabels)
	}
	other := m.byScheme["other"]
	if other == nil || other.count != 20 {
		t.Fatalf("overflow bucket %+v, want 20 observations", other)
	}
}
