package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"morc/internal/cache"
	"morc/internal/mem"
)

// sampleAt builds a linear synthetic boundary sample: every counter
// advances proportionally to the instruction clock.
func sampleAt(instr uint64) Sample {
	return Sample{
		Instr: instr,
		LLC: cache.Stats{
			Reads:  instr / 10,
			Hits:   instr / 20,
			Misses: instr/10 - instr/20,
			Fills:  instr / 40,
		},
		Mem: mem.Stats{
			ReadBytes:  instr * 2,
			WriteBytes: instr,
			BusyCycles: instr / 4,
		},
		Cores: []CoreSample{{Instr: instr, Cycles: 2 * instr, Stall: instr / 2}},
		Ratio: 1.5,
	}
}

func TestRecorderDeltas(t *testing.T) {
	r := NewRecorder(Config{Every: 100}, "MORC", nil)
	r.Begin(sampleAt(0))
	r.Record(sampleAt(100))
	r.Record(sampleAt(250)) // crossed 200 late
	s := r.Finish(sampleAt(300))

	if len(s.Epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(s.Epochs))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	wantEnds := []uint64{100, 250, 300}
	for i, e := range s.Epochs {
		if e.EndInstr != wantEnds[i] {
			t.Errorf("epoch %d ends at %d, want %d", i, e.EndInstr, wantEnds[i])
		}
	}
	tot := s.Totals()
	if tot.Instr != 300 || tot.LLCReads != 30 || tot.MemReadBytes != 600 {
		t.Errorf("totals %+v do not conserve the window", tot)
	}
	// Second epoch covers instructions 100..250.
	e := s.Epochs[1]
	if e.Instr != 150 || e.LLCReads != 15 || e.Cycles != 300 {
		t.Errorf("epoch 1 deltas wrong: %+v", e)
	}
	if e.Cores[0].IPC != 0.5 {
		t.Errorf("epoch 1 core IPC %v, want 0.5", e.Cores[0].IPC)
	}
}

func TestRecorderRatioWeighting(t *testing.T) {
	r := NewRecorder(Config{Every: 100}, "", nil)
	r.Begin(sampleAt(0))
	// Three samples at ratio 2.0, then one at 4.0, mirroring a Sampler
	// that ticked a batch of 3 then a single.
	r.ObserveRatio(2.0, 3)
	r.Record(sampleAt(100))
	r.ObserveRatio(4.0, 4)
	s := r.Finish(sampleAt(200))

	if got := s.Epochs[0].CompRatio; got != 2.0 {
		t.Errorf("epoch 0 ratio %v, want 2.0", got)
	}
	if got, want := s.Epochs[0].RatioSamples, uint64(3); got != want {
		t.Errorf("epoch 0 samples %d, want %d", got, want)
	}
	// Weighted mean: (2*3 + 4*1) / 4 = 2.5, matching Sampler.Mean.
	if got := s.MeanRatio(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("MeanRatio %v, want 2.5", got)
	}
}

func TestRecorderFinishFoldsTrailingSamples(t *testing.T) {
	r := NewRecorder(Config{Every: 100}, "", nil)
	r.Begin(sampleAt(0))
	r.ObserveRatio(2.0, 1)
	r.Record(sampleAt(100))
	// The run ends exactly on the boundary; the final forced samples (two
	// new ones: cumulative count 1 -> 3) must fold into the existing epoch
	// rather than emit a zero-length one.
	r.ObserveRatio(3.0, 3)
	s := r.Finish(sampleAt(100))

	if len(s.Epochs) != 1 {
		t.Fatalf("got %d epochs, want 1", len(s.Epochs))
	}
	if got, want := s.Epochs[0].RatioSamples, uint64(3); got != want {
		t.Errorf("samples %d, want %d", got, want)
	}
	if got := s.MeanRatio(); math.Abs(got-8.0/3) > 1e-12 {
		t.Errorf("MeanRatio %v, want %v", got, 8.0/3)
	}
}

func TestRecorderCompaction(t *testing.T) {
	var streamed int
	r := NewRecorder(Config{Every: 10}, "", func(Epoch) { streamed++ })
	r.Begin(sampleAt(0))
	for i := uint64(1); i <= maxEpochs+1; i++ {
		r.Record(sampleAt(i * 10))
	}
	end := uint64(maxEpochs+1)*10 + 5
	s := r.Finish(sampleAt(end))

	// Every epoch streams at its original grid before compaction folds it:
	// maxEpochs+1 records plus the final partial epoch Finish emits.
	if streamed != maxEpochs+2 {
		t.Errorf("streamed %d epochs, want %d", streamed, maxEpochs+2)
	}
	// The series exceeded maxEpochs once, so the grid doubled once.
	if s.Every != 20 {
		t.Errorf("post-compaction grid %d, want 20", s.Every)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Conservation across merges.
	if tot := s.Totals(); tot.Instr != end || tot.LLCReads != end/10 {
		t.Errorf("compacted totals %+v do not conserve the window", tot)
	}
	if len(s.Epochs) > maxEpochs {
		t.Errorf("series still holds %d epochs after compaction", len(s.Epochs))
	}
}

func TestSeriesNDJSON(t *testing.T) {
	r := NewRecorder(Config{Every: 50}, "SC2", nil)
	r.Begin(sampleAt(0))
	r.Record(sampleAt(50))
	s := r.Finish(sampleAt(100))

	var buf bytes.Buffer
	if err := s.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 { // header + 2 epochs
		t.Fatalf("got %d NDJSON lines, want 3", len(lines))
	}
	if lines[0]["scheme"] != "SC2" || lines[0]["epochs"] != float64(2) {
		t.Errorf("bad header %v", lines[0])
	}
	if lines[2]["end_instr"] != float64(100) {
		t.Errorf("bad final epoch %v", lines[2])
	}
}

func TestValidateRejectsBrokenSeries(t *testing.T) {
	s := &Series{Every: 10, Epochs: []Epoch{
		{Seq: 0, EndInstr: 10, LLCReads: 5, LLCHits: 3, LLCMisses: 2},
		{Seq: 1, EndInstr: 10, LLCReads: 1, LLCHits: 1},
	}}
	if err := s.Validate(); err == nil {
		t.Error("non-increasing stamps not rejected")
	}
	s.Epochs[1].EndInstr = 20
	s.Epochs[1].LLCMisses = 1 // hits+misses = 2 for 1 read
	if err := s.Validate(); err == nil {
		t.Error("hits+misses != reads not rejected")
	}
	s.Epochs[1].LLCMisses = 0
	if err := s.Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
}
