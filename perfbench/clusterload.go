package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"morc/internal/cluster"
	"morc/internal/obs"
	"morc/internal/rng"
	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

// clusterWorkload is the service workload's name.
const clusterWorkload = "cluster-1peer"

const (
	// clients is the number of closed-loop client goroutines.
	clients = 2
	// setupReps is how many times a run stands the cluster up to time
	// setup_s; the last stack carries the load. One set-up takes about a
	// millisecond, so many are needed to outweigh host jitter.
	setupReps = 501
	// Each job simulates jobWarmup+jobMeasure instructions (the budget
	// cmd/morcload submits) with a telemetry epoch every jobEpoch, so
	// the simulation is a minority of submit→done and the service layers
	// carry the load.
	jobWarmup, jobMeasure, jobEpoch = 10_000, 50_000, 5_000
)

// jobWorkloads are the programs a job may simulate: gcc and its
// reference-input variants.
func jobWorkloads() []string {
	var out []string
	for _, n := range trace.Names() {
		if n == "gcc" || strings.HasPrefix(n, "gcc_") {
			out = append(out, n)
		}
	}
	return out
}

// jobSpec is the job a client submits for workload.
func jobSpec(workload string) server.JobSpec {
	return server.JobSpec{
		Workload:  workload,
		Scheme:    sim.MORC,
		Telemetry: jobEpoch,
		Config: json.RawMessage(fmt.Sprintf(`{"WarmupInstr":%d,"MeasureInstr":%d,"SampleEvery":%d}`,
			jobWarmup, jobMeasure, jobEpoch)),
	}
}

// directConfig is the sim.Config morcd builds for jobSpec: defaults,
// the scheme and telemetry grid, and the overrides above.
func directConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.MORC
	cfg.Telemetry.Every = jobEpoch
	cfg.WarmupInstr, cfg.MeasureInstr, cfg.SampleEvery = jobWarmup, jobMeasure, jobEpoch
	return cfg
}

// stack is one in-process cluster: a morcd peer with one worker and a
// coordinator in front of it, both on loopback.
type stack struct {
	peer      *server.Server
	coord     *cluster.Coordinator
	peerHTTP  *http.Server
	coordHTTP *http.Server
	peerURL   string
	coordURL  string
	serving   sync.WaitGroup
	// peerRequests counts every HTTP request the peer receives.
	peerRequests atomic.Int64
}

// serve starts an HTTP server for h on a loopback port.
func (st *stack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// startStack brings a cluster up and returns once the coordinator lists
// the peer as up and the peer answers its health check.
func startStack(ctx context.Context) (*stack, error) {
	st := &stack{}
	st.peer = server.New(server.Config{Workers: 1})
	h := st.peer.Handler()
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.peerRequests.Add(1)
		h.ServeHTTP(w, r)
	})
	var err error
	if st.peerHTTP, st.peerURL, err = st.serve(counted); err != nil {
		st.stop()
		return nil, err
	}
	st.coord = cluster.New(cluster.Config{Peers: []string{st.peerURL}})
	if st.coordHTTP, st.coordURL, err = st.serve(st.coord.Handler()); err != nil {
		st.stop()
		return nil, err
	}
	if err := st.awaitReady(ctx); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func (st *stack) awaitReady(ctx context.Context) error {
	cl := client.New(st.coordURL)
	pc := client.New(st.peerURL)
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		var peers struct{ Peers []cluster.PeerView }
		err := getJSON(ctx, st.coordURL+"/v1/cluster/peers", &peers)
		if err == nil && len(peers.Peers) == 1 && peers.Peers[0].State == "up" {
			if err = pc.Healthz(ctx); err == nil {
				return cl.Healthz(ctx)
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster not ready: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop shuts the stack down and waits for its servers to exit.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.coordHTTP != nil {
		_ = st.coordHTTP.Shutdown(ctx) // best effort: the process is done with it
	}
	if st.coord != nil {
		_ = st.coord.Shutdown(ctx)
	}
	if st.peerHTTP != nil {
		_ = st.peerHTTP.Shutdown(ctx)
	}
	_ = st.peer.Shutdown(ctx)
	st.serving.Wait()
}

// countingTransport counts job submissions (every POST /v1/jobs attempt,
// retries included) on the client side.
type countingTransport struct {
	base    http.RoundTripper
	submits atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		t.submits.Add(1)
	}
	return t.base.RoundTrip(r)
}

// jobRecord is one completed job as its client saw it.
type jobRecord struct {
	id       string
	workload string
	submit   time.Duration // call to 202
	e2e      time.Duration // call to a terminal coordinator view
	frames   int           // SSE frames received
	epochs   int           // SSE epoch frames received
	result   *sim.Result
}

// runJob submits one job, drains its SSE stream, and waits for the
// coordinator's terminal view.
func runJob(ctx context.Context, cl *client.Client, workload string) (jobRecord, error) {
	rec := jobRecord{workload: workload}
	t0 := time.Now()
	v, err := cl.Submit(ctx, jobSpec(workload))
	rec.submit = time.Since(t0)
	if err != nil {
		return rec, fmt.Errorf("submit: %w", err)
	}
	rec.id = v.ID
	body, err := cl.Events(ctx, v.ID)
	if err != nil {
		return rec, fmt.Errorf("events: %w", err)
	}
	rec.frames, rec.epochs, err = countFrames(body)
	body.Close()
	if err != nil {
		return rec, fmt.Errorf("events: %w", err)
	}
	final, err := cl.Wait(ctx, v.ID, 25*time.Millisecond)
	rec.e2e = time.Since(t0)
	if err != nil {
		return rec, fmt.Errorf("wait: %w", err)
	}
	if final.Status != server.StatusDone || final.Result == nil {
		return rec, fmt.Errorf("job %s ended %s: %s", v.ID, final.Status, final.Error)
	}
	rec.result = final.Result
	return rec, nil
}

// countFrames reads an SSE stream to its end, counting frames and epoch
// frames.
func countFrames(r io.Reader) (frames, epochs int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			frames++
			if ev == "epoch" {
				epochs++
			}
		}
	}
	return frames, epochs, sc.Err()
}

// measureCluster stands the cluster up setupReps times, then drives it
// with closed-loop clients for the given time. Job results are checked
// against direct simulator runs after the timed window; with traced set
// it also reads every job's trace and the service counters and reports
// the per-layer metrics.
func measureCluster(ctx context.Context, seed uint64, seconds int, traced bool) *outcome {
	o := newOutcome()
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := startStack(ctx)
		if err != nil {
			o.Attempted++
			o.fail("cluster setup: %v", err)
			return o
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			s.stop()
		}
		st = s
	}
	defer st.stop()
	o.Values["setup_s"] = stats.Percentile(setups, 50)
	o.note("setup_s is the median of %d set-ups (p10 %.2f ms, p90 %.2f ms)",
		len(setups), 1000*stats.Percentile(setups, 10), 1000*stats.Percentile(setups, 90))

	transport := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	defer transport.base.(*http.Transport).CloseIdleConnections()
	before, err := scrapeCounters(ctx, st)
	if err != nil {
		o.Attempted++
		o.fail("scrape counters: %v", err)
		return o
	}
	workloads := jobWorkloads()

	var (
		mu      sync.Mutex
		records []jobRecord
		errs    []error
		wg      sync.WaitGroup
		ms0     runtime.MemStats
		ms1     runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(st.coordURL)
			cl.HTTPClient = &http.Client{Transport: transport, Timeout: 60 * time.Second}
			// The seed picks each client's job sequence.
			draw := rng.New(seed ^ uint64(c+1)<<32)
			for time.Now().Before(deadline) {
				rec, err := runJob(ctx, cl, workloads[draw.Intn(len(workloads))])
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					records = append(records, rec)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	peerReqs := st.peerRequests.Load()

	o.Attempted = len(records) + len(errs)
	for _, err := range errs {
		o.fail("cluster job: %v", err)
	}
	var e2e, submit []float64
	var frames, epochs int
	for _, r := range records {
		e2e = append(e2e, ms(r.e2e))
		submit = append(submit, ms(r.submit))
		frames += r.frames
		epochs += r.epochs
	}
	instr := float64(len(records) * (jobWarmup + jobMeasure))
	o.Values["jobs_per_s"] = float64(len(records)) / wall.Seconds()
	o.Values["sim_mips"] = instr / wall.Seconds() / 1e6
	if instr > 0 {
		o.Values["alloc_bytes_per_instr"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / instr
	}
	o.Values["job_p50_ms"] = stats.Percentile(e2e, 50)
	tv, pct := tail(e2e, tailBeyond)
	o.Values["job_tail_ms"] = tv
	o.note("cluster-1peer: %d jobs by %d closed-loop clients in %.1fs (seed %d)", len(records), clients, wall.Seconds(), seed)
	o.note("job_tail_ms is p%.1f of %d jobs (at least %d beyond it)", pct, len(records), tailBeyond)

	// Outside the timed window: every result must equal a direct run.
	checkResults(ctx, o, records)

	if traced && len(records) > 0 {
		n := float64(len(records))
		after, err := scrapeCounters(ctx, st)
		if err != nil {
			o.fail("scrape counters: %v", err)
		}
		o.Values["client.submit_ms"] = stats.Percentile(submit, 50)
		o.Values["client.retries"] = float64(transport.submits.Load()) - float64(o.Attempted)
		o.Values["cluster.peer_requests_per_job"] = float64(peerReqs) / n
		o.Values["cluster.requeues"] = after.requeues - before.requeues
		if cnt := after.encodeCount - before.encodeCount; cnt > 0 {
			o.Values["server.encode_ms"] = 1000 * (after.encodeSum - before.encodeSum) / cnt
		}
		o.Values["server.sse_frames_per_job"] = float64(frames) / n
		o.Values["telemetry.epochs_per_job"] = float64(epochs) / n
		traceMetrics(ctx, o, st, records)
	}
	return o
}

// checkResults compares every job's Result with a direct simulator run
// of the same spec, byte for byte as JSON.
func checkResults(ctx context.Context, o *outcome, records []jobRecord) {
	direct := map[string][]byte{}
	for _, r := range records {
		want, ok := direct[r.workload]
		if !ok {
			sys, err := sim.NewSingle(r.workload, directConfig())
			if err != nil {
				o.fail("direct %s: %v", r.workload, err)
				continue
			}
			res, err := sys.RunCtx(ctx)
			if err != nil {
				o.fail("direct %s: %v", r.workload, err)
				continue
			}
			if want, err = json.Marshal(res); err != nil {
				o.fail("direct %s: %v", r.workload, err)
				continue
			}
			direct[r.workload] = want
		}
		got, err := json.Marshal(r.result)
		if err != nil || string(got) != string(want) {
			o.fail("job %s (%s): result differs from a direct run", r.id, r.workload)
		}
	}
}

// traceMetrics reads each job's merged trace through the coordinator
// and reports the per-hop medians.
func traceMetrics(ctx context.Context, o *outcome, st *stack, records []jobRecord) {
	cl := client.New(st.coordURL)
	var cq, disp, lag, sq, run []float64
	dropped := 0
	for _, r := range records {
		te, err := cl.Trace(ctx, r.id)
		if err != nil {
			o.fail("trace %s: %v", r.id, err)
			continue
		}
		dropped += te.Dropped
		spans := map[string]obs.Span{}
		for _, sp := range te.Spans {
			spans[sp.Service+":"+sp.Name] = sp
		}
		cj, cqs, cd := spans["coordinator:job"], spans["coordinator:queue"], spans["coordinator:dispatch"]
		pj, pq, pr := spans["morcd:job"], spans["morcd:queue"], spans["morcd:run"]
		if cj.End == 0 || cqs.End == 0 || cd.Start == 0 || pj.End == 0 || pq.End == 0 || pr.End == 0 {
			o.fail("trace %s: missing or open spans (%d spans)", r.id, len(te.Spans))
			continue
		}
		cq = append(cq, nsToMS(cqs.End-cqs.Start))
		disp = append(disp, nsToMS(pj.Start-cd.Start))
		lag = append(lag, nsToMS(cj.End-pj.End))
		sq = append(sq, nsToMS(pq.End-pq.Start))
		run = append(run, nsToMS(pr.End-pr.Start))
	}
	o.Values["cluster.queue_ms"] = stats.Percentile(cq, 50)
	o.Values["cluster.dispatch_ms"] = stats.Percentile(disp, 50)
	o.Values["cluster.notice_lag_ms"] = stats.Percentile(lag, 50)
	o.Values["server.queue_ms"] = stats.Percentile(sq, 50)
	o.Values["server.run_ms"] = stats.Percentile(run, 50)
	o.Values["obs.dropped_spans"] = float64(dropped)
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// serviceCounters are the service counters read from /metrics.
type serviceCounters struct {
	requeues               float64
	encodeSum, encodeCount float64
}

func scrapeCounters(ctx context.Context, st *stack) (serviceCounters, error) {
	var c serviceCounters
	peer, err := getText(ctx, st.peerURL+"/metrics")
	if err != nil {
		return c, err
	}
	coord, err := getText(ctx, st.coordURL+"/metrics")
	if err != nil {
		return c, err
	}
	c.encodeSum = promValue(peer, `morcd_span_duration_seconds_sum{phase="encode"}`)
	c.encodeCount = promValue(peer, `morcd_span_duration_seconds_count{phase="encode"}`)
	c.requeues = promValue(coord, "morcd_cluster_jobs_requeued_total")
	return c, nil
}

// promValue returns the value of the first sample named series in a
// Prometheus text exposition, or 0.
func promValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New(url + ": " + resp.Status)
	}
	return b, nil
}

func getText(ctx context.Context, url string) (string, error) {
	b, err := get(ctx, url)
	return string(b), err
}

func getJSON(ctx context.Context, url string, v any) error {
	b, err := get(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
