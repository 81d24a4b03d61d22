package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"morc/internal/cache"
	"morc/internal/compress/cpack"
	"morc/internal/core"
	"morc/internal/mem"
	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
)

// A replay re-runs a simulation by calling the simulator's
// layers through their public functions, in the order System.step calls
// them, and times each call. It exists so the benchmark can split a
// run's host time by layer without adding timers inside the program.
// Its counters must equal an untraced System's for the same config and
// programs; replayCheck enforces that.

// layer is one timed call site class.
type layer int

const (
	layerTraceNext layer = iota // trace.SynthGen.Next
	layerTraceMem               // trace.Memory ReadLine/ApplyStore/WriteLine
	layerL1                     // cache.SetAssoc as L1: Read/Fill/Update, line copies
	layerLLCRead                // LLC Read
	layerLLCInsert              // LLC Fill + WriteBack
	layerRatio                  // LLC Ratio walks at sample points
	layerMem                    // mem.Controller Read/Write
	numLayers
)

// layerTimes holds per-layer call counts and the host time of the timed
// subset of calls.
type layerTimes struct {
	calls [numLayers]uint64
	timed [numLayers]uint64
	ns    [numLayers]int64
	// timer is the clock's own share of a timed interval, in
	// nanoseconds, measured before the run.
	timer float64
}

// perCall is the mean host time of one call of l, over the timed calls,
// less the clock reading each timed interval contains.
func (lt *layerTimes) perCall(l layer) float64 {
	if lt.timed[l] == 0 {
		return 0
	}
	return math.Max(0, float64(lt.ns[l])/float64(lt.timed[l])-lt.timer)
}

// measureTimer returns the nanoseconds of an empty interval timed the
// way begin and end time a call: the part of a clock reading pair that
// lands inside the measured interval.
func measureTimer() float64 {
	const n = 50_000
	var inside int64
	for i := 0; i < n; i++ {
		t := time.Now()
		inside += int64(time.Since(t))
	}
	return float64(inside) / n
}

// estimate is the host time all calls of l took, extrapolated from the
// timed subset.
func (lt *layerTimes) estimate(l layer) float64 {
	return lt.perCall(l) * float64(lt.calls[l])
}

type replayCore struct {
	gen  *trace.SynthGen
	memv *trace.Memory
	l1   *cache.SetAssoc

	now, instr, target uint64
	// measurement-window counters, as sim.CoreResult reports them
	refs, l1Misses, stall uint64
	startCyc, startInst   uint64
	// whole-run L1 counters
	allRefs, allMisses uint64
}

// replay is one traced simulation.
type replay struct {
	cfg       sim.Config
	cores     []*replayCore
	llc       cache.LLC
	memctl    *mem.Controller
	ratio     *stats.Sampler
	sampleAt  uint64
	measuring bool

	// accesses counts steps; access i is timed when i%traceEvery == 0,
	// a deterministic subset that keeps timer overhead down on the cheap
	// calls.
	accesses uint64
	timing   bool
	times    layerTimes
	wall     time.Duration
}

// newReplay builds the same components sim.New builds for cfg.
func newReplay(cfg sim.Config, progs []trace.Profile) *replay {
	r := &replay{
		cfg: cfg,
		llc: cfg.NewLLC(),
		memctl: mem.NewController(mem.Config{
			ClockHz:              cfg.ClockHz,
			BandwidthBytesPerSec: cfg.BWPerCore * float64(cfg.Cores),
			AccessLatency:        cfg.MemLatency,
		}),
		ratio: stats.NewSampler(cfg.SampleEvery),
	}
	for _, p := range progs {
		r.cores = append(r.cores, &replayCore{
			gen:  trace.NewSynthGen(p),
			memv: trace.NewMemory(p),
			l1:   cache.NewSetAssoc(cfg.L1Bytes, cfg.L1Ways, cache.LRU),
		})
	}
	return r
}

func (r *replay) begin() time.Time {
	if r.timing {
		return time.Now()
	}
	return time.Time{}
}

func (r *replay) end(l layer, t0 time.Time) {
	r.times.calls[l]++
	if r.timing {
		r.times.timed[l]++
		r.times.ns[l] += int64(time.Since(t0))
	}
}

// run is System.RunCtx for a full-fidelity run: warmup, then the
// measurement window, then the final ratio sample.
func (r *replay) run() {
	r.times.timer = measureTimer()
	t0 := time.Now()
	for _, c := range r.cores {
		c.target = r.cfg.WarmupInstr
	}
	r.loop()
	r.beginMeasurement()
	for _, c := range r.cores {
		c.target = c.instr + r.cfg.MeasureInstr
	}
	r.loop()
	r.ratio.ForceSample(r.sampleRatio())
	r.wall = time.Since(t0)
}

func (r *replay) beginMeasurement() {
	r.ratio = stats.NewSampler(r.cfg.SampleEvery)
	var base uint64
	for _, c := range r.cores {
		c.startCyc, c.startInst = c.now, c.instr
		c.refs, c.l1Misses, c.stall = 0, 0, 0
		base += c.instr
	}
	r.sampleAt = base
	r.measuring = true
}

// sampleRatio is one Ratio walk, always timed: walks are rare and long.
func (r *replay) sampleRatio() float64 {
	timing := r.timing
	r.timing = true
	t := r.begin()
	v := r.llc.Ratio()
	r.end(layerRatio, t)
	r.timing = timing
	return v
}

// loop is System.run: advance the core with the oldest clock until
// every core reaches its target.
func (r *replay) loop() {
	for {
		var pick *replayCore
		for _, c := range r.cores {
			if c.instr >= c.target {
				continue
			}
			if pick == nil || c.now < pick.now {
				pick = c
			}
		}
		if pick == nil {
			return
		}
		r.timing = r.accesses%traceEvery == 0
		r.accesses++
		if a, miss := r.stepAccess(pick); miss {
			r.serviceMiss(pick, a)
		}
		if r.measuring {
			var total uint64
			for _, c := range r.cores {
				total += c.instr
			}
			meas := total - r.sampleAt
			if r.ratio.Due(meas) {
				r.ratio.Tick(meas, r.sampleRatio())
			}
		}
	}
}

func (r *replay) stepAccess(c *replayCore) (a trace.Access, miss bool) {
	t := r.begin()
	a = c.gen.Next()
	r.end(layerTraceNext, t)
	c.now += uint64(a.NonMem) + 1
	c.instr += a.Instructions()
	c.refs++
	c.allRefs++

	t = r.begin()
	res := c.l1.Read(a.Addr)
	r.end(layerL1, t)
	if !res.Hit {
		return a, true
	}
	if a.Kind == trace.Load {
		return a, false
	}
	t = r.begin()
	mutated := cache.CloneLine(res.Data)
	r.end(layerL1, t)
	t = r.begin()
	c.memv.ApplyStore(mutated, a.Addr)
	r.end(layerTraceMem, t)
	t = r.begin()
	c.l1.Update(a.Addr, mutated, true)
	r.end(layerL1, t)
	return a, false
}

func (r *replay) serviceMiss(c *replayCore, a trace.Access) {
	if a.Kind == trace.Load {
		data, lat := r.llcAccess(c, a.Addr, false)
		r.l1Insert(c, a.Addr, data, false)
		r.block(c, lat)
		return
	}
	data, lat := r.llcAccess(c, a.Addr, true)
	t := r.begin()
	mutated := cache.CloneLine(data)
	r.end(layerL1, t)
	t = r.begin()
	c.memv.ApplyStore(mutated, a.Addr)
	r.end(layerTraceMem, t)
	r.l1Insert(c, a.Addr, mutated, true)
	r.block(c, lat)
}

func (r *replay) block(c *replayCore, lat uint64) {
	c.now += lat
	c.stall += lat
	c.l1Misses++
	c.allMisses++
}

func (r *replay) llcAccess(c *replayCore, addr uint64, isStore bool) (data []byte, lat uint64) {
	t := r.begin()
	res := r.llc.Read(addr)
	r.end(layerLLCRead, t)
	lat = uint64(r.cfg.LLCLatency) + uint64(res.ExtraCycles)
	if res.Hit {
		return res.Data, lat
	}
	t = r.begin()
	data = c.memv.ReadLine(addr)
	r.end(layerTraceMem, t)
	n := r.transferBytes(data)
	t = r.begin()
	done := r.memctl.Read(c.now+lat, addr, n)
	r.end(layerMem, t)
	lat = done - c.now
	if !isStore || r.cfg.Inclusive {
		t = r.begin()
		wbs := r.llc.Fill(addr, data)
		r.end(layerLLCInsert, t)
		r.handleWBs(c, wbs)
	}
	return data, lat
}

func (r *replay) l1Insert(c *replayCore, addr uint64, data []byte, dirty bool) {
	t := r.begin()
	wbs := c.l1.Fill(addr, data)
	if dirty {
		c.l1.Update(addr, data, true)
	}
	r.end(layerL1, t)
	for _, wb := range wbs {
		t = r.begin()
		llcWBs := r.llc.WriteBack(wb.Addr, wb.Data)
		r.end(layerLLCInsert, t)
		r.handleWBs(c, llcWBs)
	}
}

func (r *replay) handleWBs(c *replayCore, wbs []cache.Writeback) {
	for _, wb := range wbs {
		t := r.begin()
		c.memv.WriteLine(wb.Addr, wb.Data)
		r.end(layerTraceMem, t)
		n := r.transferBytes(wb.Data)
		t = r.begin()
		r.memctl.Write(c.now, wb.Addr, n)
		r.end(layerMem, t)
	}
}

// transferBytes mirrors the simulator's channel occupancy per line.
func (r *replay) transferBytes(data []byte) int {
	if !r.cfg.LinkCompression {
		return cache.LineSize
	}
	n := (cpack.CompressedBits(data) + 7) / 8
	if n > cache.LineSize {
		n = cache.LineSize
	}
	if n < 1 {
		n = 1
	}
	return n
}

// coreCounters are the per-core measurement-window counters both sides
// expose (the System keeps its L1s private, so the whole-run L1 counts
// are compared through these and the LLC traffic they cause).
type coreCounters struct {
	Instructions, Cycles, Refs, L1Misses, StallCycles uint64
}

// morcCounters are MORC's own event counters.
type morcCounters struct {
	FastMisses, AliasedMisses, LMTConflicts, LogEvictions, LogReuses uint64
	TagCycles, TagAppends, TagEscapes, TagBitsAppended               uint64
}

// faithCounters is what the traced replay must reproduce exactly.
type faithCounters struct {
	Cores     []coreCounters
	LLC       cache.Stats
	Mem       mem.Stats
	CompRatio float64
	Morc      morcCounters
}

func morcOf(llc cache.LLC) (morcCounters, bool) {
	m, ok := llc.(*core.Cache)
	if !ok {
		return morcCounters{}, false
	}
	st := m.MorcStats()
	return morcCounters{
		FastMisses: st.FastMisses, AliasedMisses: st.AliasedMisses,
		LMTConflicts: st.LMTConflicts, LogEvictions: st.LogEvictions,
		LogReuses: st.LogReuses, TagCycles: st.TagCycles, TagAppends: st.TagAppends,
		TagEscapes: st.TagEscapes, TagBitsAppended: st.TagBitsAppended,
	}, true
}

func systemCounters(sys *sim.System, res sim.Result) faithCounters {
	fc := faithCounters{LLC: *sys.LLC().Stats(), Mem: *sys.Memory().Stats(), CompRatio: res.CompRatio}
	for _, cr := range res.Cores {
		fc.Cores = append(fc.Cores, coreCounters{cr.Instructions, cr.Cycles, cr.Refs, cr.L1Misses, cr.StallCycles})
	}
	fc.Morc, _ = morcOf(sys.LLC())
	return fc
}

func (r *replay) counters() faithCounters {
	fc := faithCounters{LLC: *r.llc.Stats(), Mem: *r.memctl.Stats(), CompRatio: r.ratio.Mean()}
	for _, c := range r.cores {
		fc.Cores = append(fc.Cores, coreCounters{
			c.instr - c.startInst, c.now - c.startCyc, c.refs, c.l1Misses, c.stall,
		})
	}
	fc.Morc, _ = morcOf(r.llc)
	return fc
}

// replayCheck reports how the replay's counters differ from the
// untraced System's, or nil when they are identical.
func replayCheck(sys *sim.System, res sim.Result, r *replay) error {
	want, got := systemCounters(sys, res), r.counters()
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("traced replay diverged from the untraced System:\n  system %+v\n  replay %+v", want, got)
	}
	return nil
}

// layerMetrics turns one replay into the simulator's per-layer metrics.
// untraced is the RunCtx wall time of the same run without timers.
func (r *replay) layerMetrics(untraced time.Duration) map[string]float64 {
	lt := &r.times
	v := map[string]float64{
		"trace.next_ns":  lt.perCall(layerTraceNext),
		"trace.mem_ns":   lt.perCall(layerTraceMem),
		"trace.accesses": float64(lt.calls[layerTraceNext]),
		"cache.l1_ns":    lt.perCall(layerL1),
		"mem.access_ns":  lt.perCall(layerMem),
	}
	var refs, misses, instr uint64
	for _, c := range r.cores {
		refs += c.allRefs
		misses += c.allMisses
		instr += c.instr
	}
	if refs > 0 {
		v["cache.l1_miss_ratio"] = float64(misses) / float64(refs)
	}
	ms := r.memctl.Stats()
	if ms.Reads > 0 {
		v["mem.queue_cycles_per_read"] = float64(ms.QueueCycles) / float64(ms.Reads)
	}
	if instr > 0 {
		v["mem.bytes_per_kinstr"] = float64(ms.TotalBytes()) * 1000 / float64(instr)
	}

	// LLC calls belong to core (MORC) or to cache (the set-associative
	// LLC), after the module that implements them.
	st := r.llc.Stats()
	if mc, ok := morcOf(r.llc); ok {
		v["core.read_ns"] = lt.perCall(layerLLCRead)
		v["core.insert_ns"] = lt.perCall(layerLLCInsert)
		v["core.ratio_ns"] = lt.perCall(layerRatio)
		v["core.log_evictions"] = float64(mc.LogEvictions)
		if st.Reads > 0 {
			v["core.hit_ratio"] = float64(st.Hits) / float64(st.Reads)
		}
		v["lbe.trials"] = float64(st.Compressions)
		if ins := st.Fills + st.WriteBacks; ins > 0 {
			v["lbe.trials_per_insert"] = float64(st.Compressions) / float64(ins)
		}
	} else {
		v["cache.llc_read_ns"] = lt.perCall(layerLLCRead)
		v["cache.llc_insert_ns"] = lt.perCall(layerLLCInsert)
		v["cache.llc_ratio_ns"] = lt.perCall(layerRatio)
	}

	// What the layer calls do not cover of the untraced run's time is
	// System's own loop: the calls are the same library functions in
	// both runs.
	var covered float64
	for l := layer(0); l < numLayers; l++ {
		covered += lt.estimate(l)
	}
	v["sim.unattributed_frac"] = (float64(untraced) - covered) / float64(untraced)
	v["sim.trace_overhead_frac"] = float64(r.wall)/float64(untraced) - 1
	return v
}
