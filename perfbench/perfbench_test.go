package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"

	"morc/internal/analysis"
	"morc/internal/sim"
	"morc/internal/trace"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloadNames() {
		check("workload", w)
	}
	for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(wl, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalog %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if c := endToEnd[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalog %+v", i, m.Name, m.Unit, m.Better, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalog %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if c := perLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %s %s %s, catalog %+v", i, m.Name, m.Unit, m.Better, c)
		}
	}
}

func TestOutputListsEveryMetric(t *testing.T) {
	for _, set := range [][]Metric{endToEnd, perLayer} {
		o := newOutcome()
		o.Attempted = 1
		o.note("a note")
		var buf bytes.Buffer
		if err := o.write(&buf, set); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line resultLine
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != 1 || line.Failed != 0 {
			t.Errorf("result line %+v", line)
		}
		if len(line.Metrics) != len(set) {
			t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(set))
		}
		for _, m := range set {
			if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("metric %s printed as %+v, want unit %s", m.Name, v, m.Unit)
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	if v, p := tail(xs, 10); v != 90 || p != 90 {
		t.Errorf("tail = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:5], 10); v != 100 || p != 100 {
		t.Errorf("short tail = %v at p%v, want the maximum at p100", v, p)
	}
}

// TestReplayMatchesSim runs the traced replay on tiny systems and
// compares it with sim: the counters must agree exactly.
func TestReplayMatchesSim(t *testing.T) {
	for _, scheme := range []sim.Scheme{sim.Uncompressed, sim.MORC} {
		cfg := sim.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Cores = 2
		cfg.LLCBytesPerCore = 16 * 1024
		cfg.WarmupInstr, cfg.MeasureInstr, cfg.SampleEvery = 20_000, 30_000, 5_000
		progs := []trace.Profile{trace.MustGet("gcc"), trace.MustGet("lbm")}

		sys := sim.New(cfg, progs)
		res, err := sys.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rp := newReplay(cfg, progs)
		rp.run()
		if err := replayCheck(sys, res, rp); err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
		v := rp.layerMetrics(rp.wall)
		if v["trace.accesses"] == 0 || v["cache.l1_ns"] == 0 {
			t.Errorf("%v: layer metrics missing: %v", scheme, v)
		}
		if got := v["lbe.trials"] > 0; got != (scheme == sim.MORC) {
			t.Errorf("%v: lbe.trials = %v", scheme, v["lbe.trials"])
		}
	}
}

// TestWorkloadsWarmAndPinned runs each simulator workload once at the
// default seed: warm, conserved, and equal to the pinned digest.
func TestWorkloadsWarmAndPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulator workload")
	}
	for _, w := range simWorkloads {
		if _, ok := pinnedDigests[w.name]; !ok {
			t.Errorf("%s has no pinned digest", w.name)
		}
		r, err := w.runOnce(context.Background(), defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		if err := w.check(r, defaultSeed, &first); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestWarmErr checks the warm-cache rule on gauges as the LLCs report
// them: a cold cache fails, and a MORC cache also needs log evictions.
func TestWarmErr(t *testing.T) {
	for _, c := range []struct {
		gauges map[string]float64
		warm   bool
	}{
		{map[string]float64{"occupancy": 0.92}, true},
		{map[string]float64{"occupancy": 0.6}, false},
		{map[string]float64{"morc_log_occupancy": 0.95, "morc_log_evictions": 60}, true},
		{map[string]float64{"morc_log_occupancy": 0.95, "morc_log_evictions": 0}, false},
		{map[string]float64{"morc_log_occupancy": 0.2, "morc_log_evictions": 3}, false},
		{map[string]float64{}, false},
		{nil, false},
	} {
		if err := warmErr(c.gauges); (err == nil) != c.warm {
			t.Errorf("warmErr(%v) = %v, want warm %v", c.gauges, err, c.warm)
		}
	}
}

func TestSeedXOR(t *testing.T) {
	w, _ := simWorkloadNamed("mix16-uncompressed")
	base, err := w.programs(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.MixPrograms(trace.MultiProgramMixes()["M0"])
	seeded, _ := w.programs(7)
	for i := range base {
		if base[i].Seed != want[i].Seed {
			t.Errorf("slot %d: default seed changed the profile seed", i)
		}
		if seeded[i].Seed != want[i].Seed^7 {
			t.Errorf("slot %d: seed 7 not XORed in", i)
		}
	}
}

func TestClusterShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up a cluster")
	}
	o := measureCluster(context.Background(), 3, 1, true)
	if o.Failed != 0 || o.Attempted == 0 {
		t.Fatalf("cluster run: %+v", o)
	}
	for _, k := range []string{"jobs_per_s", "job_p50_ms", "setup_s", "server.run_ms", "cluster.notice_lag_ms", "telemetry.epochs_per_job"} {
		if o.Values[k] <= 0 {
			t.Errorf("%s = %v", k, o.Values[k])
		}
	}
}

// TestNoDeletedKnobs keeps the benchmark off the configuration fields
// open roadmap items delete, so those changes can run it unchanged.
func TestNoDeletedKnobs(t *testing.T) {
	banned := map[string]bool{"Parallelism": true, "LLCBanks": true, "PollInterval": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var id *ast.Ident
				switch n := n.(type) {
				case *ast.SelectorExpr:
					id = n.Sel
				case *ast.KeyValueExpr:
					id, _ = n.Key.(*ast.Ident)
				}
				if id != nil && banned[id.Name] {
					t.Errorf("%s: benchmark uses %s", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
	}
}

// TestLintClean runs every morclint pass over this package, the check
// the repository's own lint test applies to the whole tree.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	prog, err := analysis.Load("..", "./perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range prog.TypeErrors {
		t.Errorf("type error: %v", terr)
	}
	for _, d := range prog.Run(analysis.AllPasses()) {
		t.Errorf("%s", d.String())
	}
}
