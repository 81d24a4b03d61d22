package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"morc/internal/cache"
	"morc/internal/mem"
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

// simWorkload is one simulator workload: a system configuration and the
// programs its cores run. The benchmark plays a sweep script that runs
// one simulation after another and waits for each (a closed loop at one
// client; see README.md for why not two).
type simWorkload struct {
	name string
	// Exactly one of program (single-core) and mix (a Table 6 mix on
	// one core per program) is set.
	program string
	mix     string
	scheme  sim.Scheme
	// warmup and measure are per-core instruction budgets. warmup is
	// sized so the warmup phase fills the LLC, which check verifies on
	// every run.
	warmup, measure uint64
}

var simWorkloads = []simWorkload{
	{
		name:    "morc-gcc",
		program: "gcc", scheme: sim.MORC, warmup: 800_000, measure: 150_000,
	},
	{
		name: "mix16-uncompressed",
		mix:  "M0", scheme: sim.Uncompressed, warmup: 300_000, measure: 50_000,
	},
}

// config is the simulated system for the workload: Table 5 defaults
// with the workload's scheme, core count and instruction budget.
func (w simWorkload) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = w.scheme
	cfg.WarmupInstr = w.warmup
	cfg.MeasureInstr = w.measure
	cfg.Cores = 1
	if w.mix != "" {
		cfg.Cores = len(trace.MultiProgramMixes()[w.mix])
	}
	return cfg
}

// programs resolves the per-core profiles and XORs the benchmark seed
// into every slot's Profile.Seed, on top of the per-slot seeds
// trace.MixPrograms already assigns. Seed 0 leaves the paper's profiles
// unchanged.
func (w simWorkload) programs(seed uint64) ([]trace.Profile, error) {
	var progs []trace.Profile
	if w.mix != "" {
		names, ok := trace.MultiProgramMixes()[w.mix]
		if !ok {
			return nil, fmt.Errorf("unknown mix %q", w.mix)
		}
		progs = trace.MixPrograms(names)
	} else {
		p, err := trace.Get(w.program)
		if err != nil {
			return nil, err
		}
		progs = []trace.Profile{p}
	}
	for i := range progs {
		progs[i].Seed ^= seed
	}
	return progs, nil
}

// instructions is the simulated instruction count of one run, over all
// cores (warmup plus measurement).
func (w simWorkload) instructions() uint64 {
	cfg := w.config()
	return uint64(cfg.Cores) * (cfg.WarmupInstr + cfg.MeasureInstr)
}

// simCounters is everything a run simulated: the Result plus the
// whole-run LLC and memory counters. Its digest is the output check.
type simCounters struct {
	Result sim.Result
	LLC    cache.Stats
	Mem    mem.Stats
}

func (c simCounters) digest() (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// simRun is one measured simulation.
type simRun struct {
	setup      time.Duration // resolve profiles + build the System
	run        time.Duration // RunCtx
	allocBytes uint64        // Go heap bytes allocated during RunCtx
	counters   simCounters
	system     *sim.System
	// warm are the LLC's Probed gauges when the measure phase began.
	warm map[string]float64
}

// runOnce builds and runs the workload's System. A panic inside the
// simulator is returned as an error so it counts as a failed run.
func (w simWorkload) runOnce(ctx context.Context, seed uint64) (r simRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cfg := w.config()
	// Start every run from a collected heap so one run's garbage does
	// not bill the next run's timing.
	runtime.GC()

	t0 := time.Now()
	progs, err := w.programs(seed)
	if err != nil {
		return r, err
	}
	sys := sim.New(cfg, progs)
	r.setup = time.Since(t0)

	llc := sys.LLC()
	probed, ok := llc.(cache.Probed)
	if !ok {
		return r, fmt.Errorf("LLC %T exposes no occupancy gauge", llc)
	}
	sys.OnPhase = func(ev sim.PhaseEvent) {
		if ev.Phase == "measure" {
			r.warm = probed.Probes()
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	res, err := sys.RunCtx(ctx)
	r.run = time.Since(t1)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, err
	}
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.counters = simCounters{Result: res, LLC: *llc.Stats(), Mem: *sys.Memory().Stats()}
	r.system = sys
	return r, nil
}

// warmOccupancy is the share of the LLC's data store that must hold
// valid data when measurement begins. MORC's log occupancy levels off
// near 0.95 once full (log fragmentation), so the bar sits below that.
const warmOccupancy = 0.9

// warmErr reports a cold LLC from its gauges at the measure phase: the
// set-associative LLC's valid-line share, or MORC's log occupancy in
// compressed bits, must have reached warmOccupancy, and MORC must have
// begun evicting live logs, which it does only when its data store is
// full.
func warmErr(g map[string]float64) error {
	if occ, ok := g["occupancy"]; ok {
		if occ < warmOccupancy {
			return fmt.Errorf("LLC occupancy %.3f at the measure phase, want >= %.2f", occ, warmOccupancy)
		}
		return nil
	}
	occ, ok := g["morc_log_occupancy"]
	if !ok {
		return fmt.Errorf("LLC reported no occupancy gauge at the measure phase (gauges %v)", g)
	}
	if occ < warmOccupancy || g["morc_log_evictions"] == 0 {
		return fmt.Errorf("MORC log occupancy %.3f with %.0f log evictions at the measure phase, want >= %.2f and > 0",
			occ, g["morc_log_evictions"], warmOccupancy)
	}
	return nil
}

// check validates one run's simulated output: the warmup filled the
// LLC, hits and misses account for every read, and the digest matches
// the first run in this process and, for the default seed, the pinned
// digest.
func (w simWorkload) check(r simRun, seed uint64, first *string) error {
	if err := warmErr(r.warm); err != nil {
		return err
	}
	for _, st := range []cache.Stats{r.counters.Result.LLCStats, r.counters.LLC} {
		if st.Hits+st.Misses != st.Reads {
			return fmt.Errorf("LLC conservation: %d hits + %d misses != %d reads", st.Hits, st.Misses, st.Reads)
		}
	}
	d, err := r.counters.digest()
	if err != nil {
		return err
	}
	if *first == "" {
		*first = d
	} else if d != *first {
		return fmt.Errorf("digest %s differs from this process's first run %s", d, *first)
	}
	if want, ok := pinnedDigests[w.name]; ok && seed == defaultSeed && d != want {
		return fmt.Errorf("digest %s, pinned %s for seed %d", d, want, defaultSeed)
	}
	return nil
}

// measureSim runs the workload back to back for the given time and
// reports the end-to-end metrics (medians over runs).
func measureSim(ctx context.Context, w simWorkload, seed uint64, seconds int) *outcome {
	o := newOutcome()
	instr := float64(w.instructions())
	var mips, allocs, setups []float64
	var jobs []float64
	var first string
	var busy time.Duration
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		o.Attempted++
		r, err := w.runOnce(ctx, seed)
		if err == nil {
			err = w.check(r, seed, &first)
		}
		if err != nil {
			o.fail("%s run %d: %v", w.name, o.Attempted, err)
			continue
		}
		mips = append(mips, instr/r.run.Seconds()/1e6)
		allocs = append(allocs, float64(r.allocBytes)/instr)
		setups = append(setups, r.setup.Seconds())
		jobs = append(jobs, ms(r.setup+r.run))
		busy += r.setup + r.run
	}

	o.Values["sim_mips"] = stats.Percentile(mips, 50)
	o.Values["alloc_bytes_per_instr"] = stats.Percentile(allocs, 50)
	o.Values["setup_s"] = stats.Percentile(setups, 50)
	// One client runs the jobs back to back, so its job rate is the
	// inverse of the mean job time; the benchmark's own checks between
	// jobs are not part of it.
	o.Values["jobs_per_s"] = float64(len(jobs)) / busy.Seconds()
	o.Values["job_p50_ms"] = stats.Percentile(jobs, 50)
	tv, pct := tail(jobs, tailBeyond)
	o.Values["job_tail_ms"] = tv
	o.note("%s: %d runs of %.0f instructions (seed %d, digest %s)", w.name, len(jobs), instr, seed, first)
	o.note("job_tail_ms is p%.1f of %d jobs (at least %d beyond it)", pct, len(jobs), tailBeyond)
	return o
}

// traceEvery times one access in this many in a traced replay.
const traceEvery = 8

// measureSimTraced alternates an untraced run (the reference, checked
// like any other) with a traced replay of the same run, for the given
// time, and reports the per-layer metrics (medians over pairs). A replay
// whose counters differ from the reference is rejected: it counts as a
// failure and contributes no numbers.
func measureSimTraced(ctx context.Context, w simWorkload, seed uint64, seconds int) *outcome {
	o := newOutcome()
	samples := map[string][]float64{}
	var first string
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		o.Attempted++
		ref, err := w.runOnce(ctx, seed)
		if err == nil {
			err = w.check(ref, seed, &first)
		}
		if err != nil {
			o.fail("%s reference run %d: %v", w.name, o.Attempted, err)
			continue
		}
		progs, err := w.programs(seed)
		if err != nil {
			o.fail("%s: %v", w.name, err)
			continue
		}
		runtime.GC()
		rp := newReplay(w.config(), progs)
		rp.run()
		if err := replayCheck(ref.system, ref.counters.Result, rp); err != nil {
			o.fail("%s traced run %d rejected: %v", w.name, o.Attempted, err)
			continue
		}
		for k, v := range rp.layerMetrics(ref.run) {
			samples[k] = append(samples[k], v)
		}
	}
	for k, xs := range samples {
		o.Values[k] = stats.Percentile(xs, 50)
	}
	o.note("%s traced: %d pairs, 1 in %d accesses timed, digest %s", w.name, o.Attempted, traceEvery, first)
	return o
}
