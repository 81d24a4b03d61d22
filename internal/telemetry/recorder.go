package telemetry

// Recorder turns boundary Samples into delta Epochs. The simulator owns
// the cadence: it calls Due on its existing per-step accounting path
// (cheap — one comparison) and only builds a Sample when an epoch
// boundary has actually been crossed, so disabled or between-boundary
// telemetry costs nothing measurable in the hot loop.
type Recorder struct {
	cfg     Config
	onEpoch func(Epoch)
	series  Series

	next uint64 // next epoch boundary on the instruction clock
	last Sample // previous boundary snapshot

	// Pending periodic ratio samples since the last epoch closed.
	ratioSum       float64
	ratioN         uint64
	lastRatioCount uint64
}

// NewRecorder builds a recorder for one measurement window. onEpoch, when
// non-nil, is invoked synchronously with each completed epoch (morcd uses
// it to stream epochs to SSE subscribers); it must be cheap and must not
// call back into the recorder.
func NewRecorder(cfg Config, scheme string, onEpoch func(Epoch)) *Recorder {
	if cfg.Every == 0 {
		panic("telemetry: NewRecorder with Every == 0 (gate on Config.Enabled)")
	}
	return &Recorder{
		cfg:     cfg,
		onEpoch: onEpoch,
		series:  Series{Scheme: scheme, Every: cfg.Every},
		next:    cfg.Every,
	}
}

// Begin snapshots the counters at the start of the measurement window
// (instruction clock 0). Must be called exactly once, before any Record.
func (r *Recorder) Begin(s Sample) { r.last = s }

// Due reports whether the instruction clock has crossed the next epoch
// boundary. This is the only call on the simulator's per-step path.
func (r *Recorder) Due(instr uint64) bool { return instr >= r.next }

// ObserveRatio folds the run's periodic compression-ratio sampling into
// the current epoch. totalCount is the sampler's cumulative sample count,
// so batches of identical samples (a slow-crossing Tick) are weighted
// correctly and the series' weighted mean reproduces the sampler's mean.
func (r *Recorder) ObserveRatio(value float64, totalCount uint64) {
	n := totalCount - r.lastRatioCount
	if n == 0 {
		return
	}
	r.lastRatioCount = totalCount
	r.ratioSum += value * float64(n)
	r.ratioN += n
}

// Record closes the current epoch at boundary sample s and schedules the
// next boundary on the (possibly compacted) grid.
func (r *Recorder) Record(s Sample) {
	r.emit(s)
	r.next = (s.Instr/r.cfg.Every + 1) * r.cfg.Every
}

// Finish closes any partial final epoch and returns the completed series.
// The recorder must not be used afterwards.
func (r *Recorder) Finish(s Sample) *Series {
	n := len(r.series.Epochs)
	switch {
	case n > 0 && s.Instr <= r.series.Epochs[n-1].EndInstr:
		// The window ended exactly on (or the clock never advanced past)
		// the last boundary: fold any pending ratio samples — notably the
		// run's final forced sample — into the last epoch instead of
		// emitting an empty zero-length one.
		if r.ratioN > 0 {
			e := &r.series.Epochs[n-1]
			sum := e.CompRatio*float64(e.RatioSamples) + r.ratioSum
			e.RatioSamples += r.ratioN
			e.CompRatio = sum / float64(e.RatioSamples)
			r.ratioSum, r.ratioN = 0, 0
		}
	default:
		r.emit(s)
	}
	return &r.series
}

// emit appends the delta epoch between r.last and s.
func (r *Recorder) emit(s Sample) {
	e := Delta(r.last, s)
	e.Seq = len(r.series.Epochs)
	e.EndInstr = s.Instr
	if r.ratioN > 0 {
		e.CompRatio = r.ratioSum / float64(r.ratioN)
		e.RatioSamples = r.ratioN
		r.ratioSum, r.ratioN = 0, 0
	} else {
		e.CompRatio = s.Ratio
	}
	r.series.Epochs = append(r.series.Epochs, e)
	r.last = s
	if r.onEpoch != nil {
		r.onEpoch(e)
	}
	if len(r.series.Epochs) > maxEpochs {
		r.compact()
	}
}

// Delta returns the epoch between two boundary samples of one window:
// the counter and per-core deltas, Cycles as the slowest core's advance,
// and the derived ratios. Probes are read at end. The caller sets Seq,
// EndInstr and the compression-ratio fields.
func Delta(begin, end Sample) Epoch {
	e := Epoch{
		LLCReads:      end.LLC.Reads - begin.LLC.Reads,
		LLCHits:       end.LLC.Hits - begin.LLC.Hits,
		LLCMisses:     end.LLC.Misses - begin.LLC.Misses,
		Fills:         end.LLC.Fills - begin.LLC.Fills,
		WriteBacks:    end.LLC.WriteBacks - begin.LLC.WriteBacks,
		MemWBs:        end.LLC.MemWBs - begin.LLC.MemWBs,
		MemReadBytes:  end.Mem.ReadBytes - begin.Mem.ReadBytes,
		MemWriteBytes: end.Mem.WriteBytes - begin.Mem.WriteBytes,
		BusyCycles:    end.Mem.BusyCycles - begin.Mem.BusyCycles,
		Probes:        end.Probes,
	}
	var maxEnd, maxBegin uint64
	for i, c := range end.Cores {
		b := begin.Cores[i]
		e.Cores = append(e.Cores, CoreEpoch{Instr: c.Instr - b.Instr, Cycles: c.Cycles - b.Cycles, Stall: c.Stall - b.Stall})
		e.Instr += c.Instr - b.Instr
		maxEnd, maxBegin = max(maxEnd, c.Cycles), max(maxBegin, b.Cycles)
	}
	e.Cycles = maxEnd - maxBegin
	e.derive()
	return e
}

// compact halves the series by merging adjacent epoch pairs and doubles
// the epoch grid, bounding memory for arbitrarily long runs while
// conserving every counter (sums are preserved exactly; gauges keep the
// later boundary's reading).
func (r *Recorder) compact() {
	es := r.series.Epochs
	out := es[:0]
	for i := 0; i < len(es); i += 2 {
		if i+1 == len(es) {
			out = append(out, es[i])
			break
		}
		out = append(out, mergeEpochs(es[i], es[i+1]))
	}
	for i := range out {
		out[i].Seq = i
	}
	r.series.Epochs = out
	r.cfg.Every *= 2
	r.series.Every = r.cfg.Every
}

// mergeEpochs combines two consecutive epochs: deltas sum, the ratio
// merges sample-weighted, and boundary gauges (probes, point ratios) keep
// the later epoch's values.
func mergeEpochs(a, b Epoch) Epoch {
	m := Epoch{
		EndInstr:      b.EndInstr,
		Instr:         a.Instr + b.Instr,
		Cycles:        a.Cycles + b.Cycles,
		LLCReads:      a.LLCReads + b.LLCReads,
		LLCHits:       a.LLCHits + b.LLCHits,
		LLCMisses:     a.LLCMisses + b.LLCMisses,
		Fills:         a.Fills + b.Fills,
		WriteBacks:    a.WriteBacks + b.WriteBacks,
		MemWBs:        a.MemWBs + b.MemWBs,
		MemReadBytes:  a.MemReadBytes + b.MemReadBytes,
		MemWriteBytes: a.MemWriteBytes + b.MemWriteBytes,
		BusyCycles:    a.BusyCycles + b.BusyCycles,
		Probes:        b.Probes,
	}
	switch {
	case a.RatioSamples+b.RatioSamples > 0:
		m.RatioSamples = a.RatioSamples + b.RatioSamples
		m.CompRatio = (a.CompRatio*float64(a.RatioSamples) + b.CompRatio*float64(b.RatioSamples)) /
			float64(m.RatioSamples)
	default:
		m.CompRatio = b.CompRatio
	}
	if len(a.Cores) == len(b.Cores) {
		for i := range a.Cores {
			m.Cores = append(m.Cores, CoreEpoch{
				Instr:  a.Cores[i].Instr + b.Cores[i].Instr,
				Cycles: a.Cores[i].Cycles + b.Cores[i].Cycles,
				Stall:  a.Cores[i].Stall + b.Cores[i].Stall,
			})
		}
	} else {
		m.Cores = b.Cores
	}
	m.derive()
	return m
}
