// Package cache defines the last-level-cache contract shared by every
// organization in this repository (uncompressed, Adaptive, Decoupled, SC2
// and MORC) plus the uncompressed set-associative implementation and the
// replacement policies.
//
// The simulator drives an LLC with three operations mirroring the MORC
// paper's §3.1: Read (demand lookup), Fill (insertion after a memory
// read), and WriteBack (dirty eviction arriving from a private L1).
// Operations return any dirty lines the LLC pushed out to memory so the
// simulator can account bandwidth, energy and backing-store updates.
package cache

import "fmt"

// LineSize is the cache line size in bytes used throughout the system
// (Table 5: 64B blocks).
const LineSize = 64

// LineAddr returns the line-aligned address.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// LineTag returns the line number (address divided by line size); this is
// the "tag" MORC compresses, since indirect caches cannot drop index bits.
func LineTag(addr uint64) uint64 { return addr / LineSize }

// Writeback is a dirty line leaving the LLC toward memory.
type Writeback struct {
	Addr uint64
	Data []byte
}

// CloneLine returns a private copy of a line payload. Cache structures
// retain line data past the call that delivered it while callers keep
// mutating their buffers, so every ownership transfer copies. All
// hot-path line copies funnel through here, and TestCloneLineAllocs
// holds each copy to exactly 1 allocation.
func CloneLine(data []byte) []byte {
	//morclint:ignore hotalloc ownership-transfer copy: the cache keeps the line while the caller reuses its buffer; TestCloneLineAllocs pins it at 1 alloc
	return append([]byte(nil), data...)
}

// ReadResult describes the outcome of a demand read.
type ReadResult struct {
	Hit  bool
	Data []byte // valid when Hit
	// ExtraCycles is latency beyond the base LLC access time —
	// decompression for compressed organizations (0 for uncompressed).
	// It is also charged on slow misses (e.g. MORC's LMT-aliased miss,
	// which must decompress tags before declaring the miss).
	ExtraCycles int
}

// LLC is a last-level cache organization.
type LLC interface {
	// Read performs a demand lookup.
	Read(addr uint64) ReadResult
	// Fill inserts a line fetched from memory (read miss path).
	Fill(addr uint64, data []byte) []Writeback
	// WriteBack inserts or updates a dirty line evicted from a private
	// cache (non-inclusive LLCs allocate on write-back).
	WriteBack(addr uint64, data []byte) []Writeback
	// Ratio returns the current effective compression ratio: valid line
	// bytes over data-store capacity (1.0 for uncompressed when full).
	Ratio() float64
	// Stats exposes the running counters.
	Stats() *Stats
}

// Probed is optionally implemented by LLC organizations that expose
// scheme-specific gauges beyond the common Stats counters. The telemetry
// layer reads probes at every epoch boundary, so implementations should
// be cheap relative to an epoch's worth of simulation (a full walk of
// the organization's metadata is fine; per-line decompression is not).
//
// Probe values are gauges sampled at the boundary: instantaneous
// fractions (occupancy, invalid share) or cumulative event counts (GC
// compactions), never per-epoch deltas — consumers difference cumulative
// probes themselves if they want rates.
type Probed interface {
	Probes() map[string]float64
}

// Stats are the counters every LLC maintains.
type Stats struct {
	Reads        uint64
	Hits         uint64
	Misses       uint64
	Fills        uint64
	WriteBacks   uint64 // write-backs received from L1
	MemWBs       uint64 // dirty lines evicted to memory
	ExtraCycles  uint64 // total decompression cycles charged
	Compressions uint64 // line-compression events (incl. trials)
	Decompressed uint64 // bytes of decompressed output produced
}

// HitRate returns hits/reads (0 when idle).
func (s *Stats) HitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads)
}

// ReplacementKind selects a replacement policy.
type ReplacementKind int

// Supported replacement policies.
const (
	LRU ReplacementKind = iota
	FIFO
)

// policy tracks replacement order for one set of n ways.
type policy struct {
	kind ReplacementKind
	// order[i] is the recency/arrival rank of way i; higher = newer.
	order []uint64
	clock uint64
}

func newPolicy(kind ReplacementKind, ways int) *policy {
	return &policy{kind: kind, order: make([]uint64, ways)}
}

// touch records a use of way i (no-op for FIFO).
func (p *policy) touch(i int) {
	if p.kind == LRU {
		p.clock++
		p.order[i] = p.clock
	}
}

// insert records the arrival of a line in way i.
func (p *policy) insert(i int) {
	p.clock++
	p.order[i] = p.clock
}

// victim returns the way with the lowest rank.
func (p *policy) victim() int {
	v, min := 0, p.order[0]
	for i := 1; i < len(p.order); i++ {
		if p.order[i] < min {
			v, min = i, p.order[i]
		}
	}
	return v
}

// SetAssoc is a conventional uncompressed set-associative cache. It is
// both the baseline LLC and the building block for the private L1s.
type SetAssoc struct {
	sets  int
	ways  int
	lines []line // sets*ways
	pols  []*policy
	stats Stats
}

type line struct {
	valid bool
	dirty bool
	tag   uint64 // full line address
	data  []byte
}

// NewSetAssoc builds a cache of the given total size. Size must be
// divisible by ways*LineSize.
func NewSetAssoc(sizeBytes, ways int, repl ReplacementKind) *SetAssoc {
	if sizeBytes <= 0 || ways <= 0 || sizeBytes%(ways*LineSize) != 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d ways=%d", sizeBytes, ways))
	}
	sets := sizeBytes / (ways * LineSize)
	c := &SetAssoc{sets: sets, ways: ways, lines: make([]line, sets*ways)}
	c.pols = make([]*policy, sets)
	for i := range c.pols {
		c.pols[i] = newPolicy(repl, ways)
	}
	return c
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

func (c *SetAssoc) setOf(addr uint64) int {
	return int(LineTag(addr) % uint64(c.sets))
}

// find returns the way holding addr, or -1.
func (c *SetAssoc) find(addr uint64) int {
	la := LineAddr(addr)
	s := c.setOf(addr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
		if l.valid && l.tag == la {
			return w
		}
	}
	return -1
}

// Read implements LLC.
func (c *SetAssoc) Read(addr uint64) ReadResult {
	c.stats.Reads++
	if w := c.find(addr); w >= 0 {
		s := c.setOf(addr)
		c.pols[s].touch(w)
		c.stats.Hits++
		return ReadResult{Hit: true, Data: c.lines[s*c.ways+w].data}
	}
	c.stats.Misses++
	return ReadResult{}
}

// insert places data for addr (replacing any existing copy), returning a
// dirty victim if one was displaced.
func (c *SetAssoc) insert(addr uint64, data []byte, dirty bool) []Writeback {
	la := LineAddr(addr)
	s := c.setOf(addr)
	w := c.find(addr)
	var wbs []Writeback
	if w < 0 {
		w = -1
		for i := 0; i < c.ways; i++ {
			if !c.lines[s*c.ways+i].valid {
				w = i
				break
			}
		}
		if w < 0 {
			w = c.pols[s].victim()
			v := &c.lines[s*c.ways+w]
			if v.dirty {
				wbs = append(wbs, Writeback{Addr: v.tag, Data: v.data})
				c.stats.MemWBs++
			}
		}
	}
	l := &c.lines[s*c.ways+w]
	wasDirty := l.valid && l.tag == la && l.dirty
	l.valid = true
	l.tag = la
	l.data = CloneLine(data)
	l.dirty = dirty || wasDirty
	c.pols[s].insert(w)
	return wbs
}

// Fill implements LLC.
func (c *SetAssoc) Fill(addr uint64, data []byte) []Writeback {
	c.stats.Fills++
	return c.insert(addr, data, false)
}

// WriteBack implements LLC.
func (c *SetAssoc) WriteBack(addr uint64, data []byte) []Writeback {
	c.stats.WriteBacks++
	return c.insert(addr, data, true)
}

// Update overwrites the data of addr in place (marking it dirty when
// dirty is set) and reports whether the line was present. Private caches
// use this on store hits.
func (c *SetAssoc) Update(addr uint64, data []byte, dirty bool) bool {
	w := c.find(addr)
	if w < 0 {
		return false
	}
	s := c.setOf(addr)
	l := &c.lines[s*c.ways+w]
	l.data = append(l.data[:0], data...)
	if dirty {
		l.dirty = true
	}
	c.pols[s].touch(w)
	return true
}

// Invalidate drops addr if present, returning its data and dirtiness.
// Private caches use this for evictions driven by the owner core.
func (c *SetAssoc) Invalidate(addr uint64) (data []byte, dirty, ok bool) {
	w := c.find(addr)
	if w < 0 {
		return nil, false, false
	}
	s := c.setOf(addr)
	l := &c.lines[s*c.ways+w]
	l.valid = false
	return l.data, l.dirty, true
}

// Ratio implements LLC: an uncompressed cache's "compression ratio" is
// its occupancy (≤ 1).
func (c *SetAssoc) Ratio() float64 {
	valid := 0
	for i := range c.lines {
		if c.lines[i].valid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.lines))
}

// Stats implements LLC.
func (c *SetAssoc) Stats() *Stats { return &c.stats }

// Probes implements Probed: an uncompressed cache's only gauge is its
// occupancy.
func (c *SetAssoc) Probes() map[string]float64 {
	return map[string]float64{"occupancy": c.Ratio()}
}

// CheckInvariants verifies the cache's structural invariants: every
// valid line is line-aligned, stored in the set its address indexes to,
// holds exactly LineSize bytes, and no set holds two copies of the same
// address. It exists for the internal/check differential harness; the
// compressed organizations have analogous (much deeper) checkers.
func (c *SetAssoc) CheckInvariants() error {
	for s := 0; s < c.sets; s++ {
		seen := make(map[uint64]bool, c.ways)
		for w := 0; w < c.ways; w++ {
			l := &c.lines[s*c.ways+w]
			if !l.valid {
				continue
			}
			if l.tag != LineAddr(l.tag) {
				return fmt.Errorf("cache: set %d way %d holds unaligned address %#x", s, w, l.tag)
			}
			if c.setOf(l.tag) != s {
				return fmt.Errorf("cache: set %d way %d holds %#x, which indexes to set %d",
					s, w, l.tag, c.setOf(l.tag))
			}
			if len(l.data) != LineSize {
				return fmt.Errorf("cache: set %d way %d holds %d bytes for %#x", s, w, len(l.data), l.tag)
			}
			if seen[l.tag] {
				return fmt.Errorf("cache: set %d holds duplicate copies of %#x", s, l.tag)
			}
			seen[l.tag] = true
		}
		if len(c.pols[s].order) != c.ways {
			return fmt.Errorf("cache: set %d replacement state tracks %d ways, want %d",
				s, len(c.pols[s].order), c.ways)
		}
	}
	return nil
}

// assert interface compliance.
var _ LLC = (*SetAssoc)(nil)
