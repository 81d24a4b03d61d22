// Package check is the repository's unified correctness harness: a
// scheme-agnostic differential oracle that drives any cache.LLC against
// a latest-data-wins reference model, plus a single entry point for the
// structural self-checks the cache organizations implement.
//
// The oracle generalizes the reference model that grew up inside
// internal/core's property tests. Fill and WriteBack record the most
// recent data stored per line; Read verifies that a hit returns exactly
// that data; and every Writeback a cache emits must carry the latest
// data for its address. Because a Fill models the miss path — its
// payload is by definition what the backing store holds — the oracle
// also maintains a memory image, which makes conservation checkable for
// any operation interleaving: at every point, each line's latest data
// must be readable from the cache or present in memory. A compressed
// organization may drop clean lines, recompress, relocate, or merge
// duplicates freely; what it may never do is lose a dirty line or
// resurrect stale bytes.
package check

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"morc/internal/cache"
	"morc/internal/rng"
)

// Oracle wraps a cache under test with the reference model. All
// operations must go through the Oracle so the model stays in sync;
// each returns the first model violation observed, or nil.
type Oracle struct {
	c      cache.LLC
	latest map[uint64][]byte // line addr -> most recent data stored
	mem    map[uint64][]byte // line addr -> backing-store image
}

// New wraps c with a fresh reference model.
func New(c cache.LLC) *Oracle {
	return &Oracle{
		c:      c,
		latest: map[uint64][]byte{},
		mem:    map[uint64][]byte{},
	}
}

// Cache returns the wrapped cache under test.
func (o *Oracle) Cache() cache.LLC { return o.c }

// Read issues a read and verifies that a hit returns the latest data
// recorded for the line.
func (o *Oracle) Read(addr uint64) error {
	la := cache.LineAddr(addr)
	res := o.c.Read(addr)
	if res.ExtraCycles < 0 {
		return fmt.Errorf("read %#x: negative ExtraCycles %d", addr, res.ExtraCycles)
	}
	if !res.Hit {
		return nil
	}
	want, ok := o.latest[la]
	if !ok {
		return fmt.Errorf("read %#x: hit on a line that was never inserted", addr)
	}
	if len(res.Data) != cache.LineSize {
		return fmt.Errorf("read %#x: hit returned %d bytes, want %d", addr, len(res.Data), cache.LineSize)
	}
	if !bytes.Equal(res.Data, want) {
		return fmt.Errorf("read %#x: hit returned stale data (got % x..., want % x...)",
			addr, res.Data[:8], want[:8])
	}
	return nil
}

// Fill models the miss path: data arrives from the backing store, so
// the memory image is updated alongside the latest map.
func (o *Oracle) Fill(addr uint64, data []byte) error {
	if len(data) != cache.LineSize {
		return fmt.Errorf("fill %#x: oracle requires %d-byte lines, got %d", addr, cache.LineSize, len(data))
	}
	la := cache.LineAddr(addr)
	wbs := o.c.Fill(addr, data)
	// Write-backs are checked against the pre-fill model: an eviction
	// triggered by this insertion must carry whatever was latest before
	// the fill, including an older copy of the line being refilled.
	if err := o.checkWriteBacks("fill", wbs); err != nil {
		return err
	}
	o.latest[la] = cache.CloneLine(data)
	o.mem[la] = cache.CloneLine(data)
	return nil
}

// WriteBack models a dirty eviction arriving from the level above: the
// line's latest data changes, but memory does not (yet).
func (o *Oracle) WriteBack(addr uint64, data []byte) error {
	if len(data) != cache.LineSize {
		return fmt.Errorf("write-back %#x: oracle requires %d-byte lines, got %d", addr, cache.LineSize, len(data))
	}
	la := cache.LineAddr(addr)
	wbs := o.c.WriteBack(addr, data)
	if err := o.checkWriteBacks("write-back", wbs); err != nil {
		return err
	}
	o.latest[la] = cache.CloneLine(data)
	return nil
}

// checkWriteBacks validates evictions emitted by one operation against
// the pre-operation model and applies them to the memory image.
func (o *Oracle) checkWriteBacks(op string, wbs []cache.Writeback) error {
	for _, wb := range wbs {
		if wb.Addr != cache.LineAddr(wb.Addr) {
			return fmt.Errorf("%s: eviction address %#x is not line-aligned", op, wb.Addr)
		}
		if len(wb.Data) != cache.LineSize {
			return fmt.Errorf("%s: eviction of %d bytes for %#x, want %d", op, len(wb.Data), wb.Addr, cache.LineSize)
		}
		want, ok := o.latest[wb.Addr]
		if !ok {
			return fmt.Errorf("%s: eviction for %#x, which was never inserted", op, wb.Addr)
		}
		if !bytes.Equal(wb.Data, want) {
			return fmt.Errorf("%s: eviction for %#x carries stale data (got % x..., want % x...)",
				op, wb.Addr, wb.Data[:8], want[:8])
		}
		o.mem[wb.Addr] = cache.CloneLine(wb.Data)
	}
	return nil
}

// CheckConservation verifies that no line was silently dropped: every
// line's latest data is still readable from the cache or present in the
// memory image. It issues reads (perturbing recency state and hit
// counters), so it is meant as a final check after an exercise run.
// Lines are visited in sorted address order so the reads perturb the
// cache identically on every run and the first violation reported is
// deterministic.
func (o *Oracle) CheckConservation() error {
	las := make([]uint64, 0, len(o.latest))
	for la := range o.latest {
		las = append(las, la)
	}
	sort.Slice(las, func(i, j int) bool { return las[i] < las[j] })
	for _, la := range las {
		want := o.latest[la]
		res := o.c.Read(la)
		if res.Hit {
			if !bytes.Equal(res.Data, want) {
				return fmt.Errorf("conservation: line %#x cached with stale data", la)
			}
			continue
		}
		got, ok := o.mem[la]
		if !ok {
			return fmt.Errorf("conservation: line %#x dropped (not cached, never written back)", la)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("conservation: line %#x lost its last write (memory holds an older copy)", la)
		}
	}
	return nil
}

// CheckStats verifies the basic accounting identities every LLC must
// uphold: hits plus misses equals reads, and the compression ratio is a
// finite non-negative number.
func (o *Oracle) CheckStats() error {
	st := o.c.Stats()
	if st == nil {
		return fmt.Errorf("stats: Stats() returned nil")
	}
	if st.Hits+st.Misses != st.Reads {
		return fmt.Errorf("stats: hits(%d) + misses(%d) != reads(%d)", st.Hits, st.Misses, st.Reads)
	}
	r := o.c.Ratio()
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return fmt.Errorf("stats: compression ratio %v is not a finite non-negative number", r)
	}
	return nil
}

// Line generates a cache line with realistic value locality: zero
// lines, sparse small integers, lines built from a tiny word pool
// (compressor-friendly), and uniformly random bytes (incompressible).
func Line(r *rng.RNG) []byte {
	line := make([]byte, cache.LineSize)
	switch r.Intn(4) {
	case 0:
		// all zero
	case 1:
		// sparse small values: mostly zero words with a few small ints
		for i := 0; i < cache.LineSize; i += 8 {
			if r.Intn(3) == 0 {
				line[i] = byte(r.Intn(256))
			}
		}
	case 2:
		// repeated words from a small pool
		var pool [4]byte
		for i := range pool {
			pool[i] = byte(r.Uint64())
		}
		for i := range line {
			line[i] = pool[r.Intn(len(pool))]
		}
	default:
		for i := range line {
			line[i] = byte(r.Uint64())
		}
	}
	return line
}

// Exercise drives the cache through ops random operations over a
// working set of addrLines line addresses, mixing reads, miss-path
// fills, and dirty write-backs the way the simulator's LLC sees them.
// It stops at the first model violation.
func Exercise(o *Oracle, r *rng.RNG, ops, addrLines int) error {
	for i := 0; i < ops; i++ {
		addr := uint64(r.Intn(addrLines)) * cache.LineSize
		var err error
		switch r.Intn(4) {
		case 0, 1:
			err = o.Read(addr)
		case 2:
			// Miss path: memory supplies the line. Reuse the recorded
			// image when the line has one (a clean refill), otherwise
			// invent a first-touch value.
			data, ok := o.mem[addr]
			if !ok {
				data = Line(r)
			}
			err = o.Fill(addr, data)
		default:
			err = o.WriteBack(addr, Line(r))
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// InvariantChecker is implemented by every cache organization with
// structural self-checks (MORC's log/LMT cross-checks, the baselines'
// segment accounting, the skewed cache's packing rules, the plain
// set-associative cache's tag uniqueness).
type InvariantChecker interface {
	CheckInvariants() error
}

// Invariants runs c's structural self-check if it implements one.
func Invariants(c cache.LLC) error {
	if ic, ok := c.(InvariantChecker); ok {
		return ic.CheckInvariants()
	}
	return nil
}
