package sim

import (
	"math"

	"morc/internal/cache"
	"morc/internal/energy"
	"morc/internal/stats"
	"morc/internal/telemetry"
)

// cgmtThreads is the CGMT threads per core the throughput model (§4)
// assumes.
const cgmtThreads = 4

// CoreResult summarizes one core's measurement window.
type CoreResult struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64
	Refs         uint64 // memory references (L1 accesses)
	L1Misses     uint64
	StallCycles  uint64
	// AvgGap is the average compute cycles between consecutive L1 misses
	// — the latency tolerance the CGMT model can exploit (§4).
	AvgGap float64
	// ThroughputIPC is the estimated multithreaded (CGMT) throughput:
	// instructions over compute cycles plus only the un-hideable stalls.
	ThroughputIPC float64
	// MissLatency is the distribution of this core's L1-miss service
	// latencies in core cycles — the system-level analogue of Figure 14's
	// per-hit decompression-latency distribution. AvgMissLatency is its
	// mean.
	MissLatency    *stats.Histogram `json:"MissLatency,omitempty"`
	AvgMissLatency float64
}

// Result is one simulation's outcome.
type Result struct {
	Scheme Scheme
	Cores  []CoreResult

	// CompRatio is the mean sampled compression ratio (valid bytes over
	// capacity), the paper's Figure 6a metric.
	CompRatio float64
	// MemBytes is total off-chip traffic during the window.
	MemBytes uint64
	// GBPerBillionInstr is Figure 6b's bandwidth metric.
	GBPerBillionInstr float64
	// IPC is the geometric mean of per-core IPCs; Throughput the gmean of
	// per-core CGMT throughputs; CompletionCycles the slowest core's
	// cycle count (Figure 8d's completion-time metric).
	IPC              float64
	Throughput       float64
	CompletionCycles uint64
	// Energy is the Table 7 memory-subsystem model applied to the window.
	Energy energy.Breakdown
	// LLCStats is the window's LLC counter delta.
	LLCStats cache.Stats
	// Telemetry is the per-epoch time series of the measurement window,
	// recorded when Config.Telemetry is enabled (nil otherwise). Its
	// per-epoch deltas sum to this Result's window totals and its
	// sample-weighted mean ratio reproduces CompRatio.
	Telemetry *telemetry.Series `json:"telemetry,omitempty"`
	// Sampling describes the representative-interval schedule when the
	// run used Config.Sampling (nil on full-fidelity runs): the windows
	// simulated, the instruction-reduction factor, and the profiling
	// pass's error estimates.
	Sampling *SamplingInfo `json:"sampling,omitempty"`
}

// collect computes a full run's Result. The measurement window is one
// winDelta — live per-core counters against their beginMeasurement
// starts, shared counters against the beginMeasurement snapshots — and
// goes through the same derivation as a sampled run's windows, at
// coefficient 1 and f = 1. Every counter is an integer, so the
// derivation reproduces it exactly.
func (s *System) collect() Result {
	cores := make([]winSnap, len(s.cores))
	for i, c := range s.cores {
		cores[i] = c.snapshot().sub(winSnap{instr: c.startInst, now: c.startCyc})
	}
	begin := segCut{llc: s.llcSnap, mem: s.memSnap}
	end := segCut{llc: *s.llc.Stats(), mem: *s.memctl.Stats()}
	res := s.derive([]winDelta{newWinDelta(cores, end, begin)}, []float64{1}, 1)
	res.CompRatio = s.ratio.Mean()
	if s.tel != nil {
		res.Telemetry = s.tel.Finish(s.telemetrySample(s.totalInstr() - s.sampleAt))
	}
	return res
}

// winSnap is a snapshot of one core's measurement counters. The same
// shape doubles as a per-window delta between two snapshots.
type winSnap struct {
	instr, now, refs, misses, stall uint64
	lat                             *stats.Histogram
}

// snapshot reads core c's live measurement counters; lat aliases the
// live histogram.
func (c *coreState) snapshot() winSnap {
	return winSnap{instr: c.instr, now: c.now, refs: c.refs, misses: c.l1Misses, stall: c.stall, lat: c.missLat}
}

// sub returns the counter delta cur - prev.
func (cur winSnap) sub(prev winSnap) winSnap {
	return winSnap{
		instr:  cur.instr - prev.instr,
		now:    cur.now - prev.now,
		refs:   cur.refs - prev.refs,
		misses: cur.misses - prev.misses,
		stall:  cur.stall - prev.stall,
		lat:    subHist(cur.lat, prev.lat),
	}
}

// winDelta is one measurement window's exact counters: per-core deltas,
// shared-counter (LLC, memory controller) deltas between two consistent
// cuts, and the occupancy ratio at the window's end.
type winDelta struct {
	cores    []winSnap
	llc      cache.Stats
	memBytes uint64
	memAccs  uint64
	ratio    float64
}

// newWinDelta builds a window from its per-core deltas and the shared
// counters at its closing and opening cuts.
func newWinDelta(cores []winSnap, end, begin segCut) winDelta {
	return winDelta{
		cores:    cores,
		llc:      subCacheStats(end.llc, begin.llc),
		memBytes: end.mem.TotalBytes() - begin.mem.TotalBytes(),
		memAccs:  (end.mem.Reads + end.mem.Writes) - (begin.mem.Reads + begin.mem.Writes),
		ratio:    end.ratio,
	}
}

// subCacheStats returns the counter delta a - b.
func subCacheStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Reads:        a.Reads - b.Reads,
		Hits:         a.Hits - b.Hits,
		Misses:       a.Misses - b.Misses,
		Fills:        a.Fills - b.Fills,
		WriteBacks:   a.WriteBacks - b.WriteBacks,
		MemWBs:       a.MemWBs - b.MemWBs,
		ExtraCycles:  a.ExtraCycles - b.ExtraCycles,
		Compressions: a.Compressions - b.Compressions,
		Decompressed: a.Decompressed - b.Decompressed,
	}
}

// subHist returns cur - prev bucketwise; a nil prev is the zero
// histogram.
func subHist(cur, prev *stats.Histogram) *stats.Histogram {
	d := cloneHist(cur)
	if prev == nil {
		return d
	}
	for b := range d.Counts {
		d.Counts[b] -= prev.Counts[b]
		d.Sums[b] -= prev.Sums[b]
	}
	d.N -= prev.N
	d.Sum -= prev.Sum
	return d
}

// cloneHist copies a histogram's mutable state (bounds are shared).
func cloneHist(h *stats.Histogram) *stats.Histogram {
	return &stats.Histogram{
		Bounds: h.Bounds,
		Counts: append([]uint64(nil), h.Counts...),
		Sums:   append([]float64(nil), h.Sums...),
		N:      h.N,
		Sum:    h.Sum,
	}
}

// derive turns measurement windows into a Result: every additive counter
// is summed with the per-window coefficients coef (then scaled by f, a
// sampled run's truncation-remainder correction), ratios are recomputed
// from the summed counters, and the per-core latency histograms merge
// with the same weights. A full run is one window at coefficient 1 and
// f = 1; a sampled run passes its representative windows with the
// interpCoeffs weights. CompRatio and Telemetry are left to the caller.
func (s *System) derive(wins []winDelta, coef []float64, f float64) Result {
	res := Result{Scheme: s.cfg.Scheme}

	var ipcs, tputs []float64
	var totalInstrF float64
	for i := range s.cores {
		var instrF, cycF, refsF, missF, stallF float64
		h := stats.NewHistogram(missLatBounds)
		countsF := make([]float64, len(h.Counts))
		for w := range wins {
			p := coef[w]
			c := wins[w].cores[i]
			instrF += p * float64(c.instr)
			cycF += p * float64(c.now)
			refsF += p * float64(c.refs)
			missF += p * float64(c.misses)
			stallF += p * float64(c.stall)
			for b := range countsF {
				countsF[b] += p * float64(c.lat.Counts[b])
				h.Sums[b] += p * c.lat.Sums[b] * f
			}
		}
		instrF *= f
		cycF *= f
		refsF *= f
		missF *= f
		stallF *= f
		for b := range countsF {
			h.Counts[b] = uint64(math.Round(countsF[b] * f))
			h.N += h.Counts[b]
			h.Sum += h.Sums[b]
		}
		cr := CoreResult{
			Instructions:   uint64(math.Round(instrF)),
			Cycles:         uint64(math.Round(cycF)),
			Refs:           uint64(math.Round(refsF)),
			L1Misses:       uint64(math.Round(missF)),
			StallCycles:    uint64(math.Round(stallF)),
			MissLatency:    h,
			AvgMissLatency: h.Mean(),
		}
		if cycF > 0 {
			cr.IPC = instrF / cycF
		}
		compute := cycF - stallF
		if missF > 0 {
			cr.AvgGap = compute / missF
		}
		// CGMT throughput (§4): each miss is overlapped with the other
		// threads' compute; only latency beyond (threads-1)*AvgGap stalls
		// the core. Computed piecewise from the latency histogram: exact
		// for buckets entirely above or below the hideable latency,
		// mean-approximated only for the single straddling bucket, and
		// truncated to whole cycles per bucket.
		hidden := float64(cgmtThreads-1) * cr.AvgGap
		var residual float64
		for b, cnt := range h.Counts {
			if cnt == 0 {
				continue
			}
			if excess := h.Sums[b] - hidden*float64(cnt); excess > 0 {
				residual += math.Trunc(excess)
			}
		}
		if tcyc := compute + residual; tcyc > 0 {
			cr.ThroughputIPC = instrF / tcyc
		}
		res.Cores = append(res.Cores, cr)
		totalInstrF += instrF
		ipcs = append(ipcs, cr.IPC)
		tputs = append(tputs, cr.ThroughputIPC)
		if cr.Cycles > res.CompletionCycles {
			res.CompletionCycles = cr.Cycles
		}
	}
	res.IPC = stats.GeoMean(ipcs)
	res.Throughput = stats.GeoMean(tputs)

	var memF, dramF float64
	for w := range wins {
		memF += coef[w] * float64(wins[w].memBytes) * f
		dramF += coef[w] * float64(wins[w].memAccs) * f
	}
	res.MemBytes = uint64(math.Round(memF))
	if totalInstrF > 0 {
		// bytes/instr == GB per 1e9 instructions.
		res.GBPerBillionInstr = memF / totalInstrF
	}

	sum := func(get func(cache.Stats) uint64) uint64 {
		var v float64
		for w := range wins {
			v += coef[w] * float64(get(wins[w].llc)) * f
		}
		return uint64(math.Round(v))
	}
	res.LLCStats = cache.Stats{
		Reads:        sum(func(st cache.Stats) uint64 { return st.Reads }),
		Hits:         sum(func(st cache.Stats) uint64 { return st.Hits }),
		Misses:       sum(func(st cache.Stats) uint64 { return st.Misses }),
		Fills:        sum(func(st cache.Stats) uint64 { return st.Fills }),
		WriteBacks:   sum(func(st cache.Stats) uint64 { return st.WriteBacks }),
		MemWBs:       sum(func(st cache.Stats) uint64 { return st.MemWBs }),
		ExtraCycles:  sum(func(st cache.Stats) uint64 { return st.ExtraCycles }),
		Compressions: sum(func(st cache.Stats) uint64 { return st.Compressions }),
		Decompressed: sum(func(st cache.Stats) uint64 { return st.Decompressed }),
	}

	// Energy is linear in events and cycles, so applying the model once
	// to the summed events equals the weighted sum of per-window
	// breakdowns.
	res.Energy = s.energyFor(res, uint64(math.Round(dramF)))
	return res
}

// energyFor applies the Table 7 model to a Result plus its DRAM access
// count.
func (s *System) energyFor(res Result, dramAccesses uint64) energy.Breakdown {
	p := energy.ForScheme(s.cfg.Scheme.String())
	p.ClockHz = s.cfg.ClockHz
	if s.cfg.Scheme == Uncompressed8x {
		p = energy.ScaleLLCStatic(p, 8)
	}
	var refs uint64
	for _, c := range res.Cores {
		refs += c.Refs
	}
	ev := energy.Events{
		Cycles:            res.CompletionCycles,
		Cores:             s.cfg.Cores,
		L1Accesses:        refs,
		LLCAccesses:       res.LLCStats.Reads + res.LLCStats.Fills + res.LLCStats.WriteBacks,
		DRAMAccesses:      dramAccesses,
		Compressions:      res.LLCStats.Compressions,
		DecompressedBytes: res.LLCStats.Decompressed,
	}
	return energy.Compute(p, ev)
}
