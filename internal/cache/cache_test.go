package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"morc/internal/rng"
)

func lineOf(b byte) []byte {
	d := make([]byte, LineSize)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestLineHelpers(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr = %#x", LineAddr(0x1234))
	}
	if LineTag(0x1240) != 0x49 {
		t.Fatalf("LineTag = %#x", LineTag(0x1240))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewSetAssoc(1000, 3, LRU)
}

func TestFillThenRead(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	c.Fill(0x1000, lineOf(7))
	r := c.Read(0x1000)
	if !r.Hit || !bytes.Equal(r.Data, lineOf(7)) {
		t.Fatal("read after fill")
	}
	if r.ExtraCycles != 0 {
		t.Fatal("uncompressed cache charged extra cycles")
	}
	if miss := c.Read(0x2000); miss.Hit {
		t.Fatal("unexpected hit")
	}
}

func TestOffsetWithinLineHits(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	c.Fill(0x1000, lineOf(1))
	if !c.Read(0x103F).Hit {
		t.Fatal("offset within line missed")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, enough sets; map same set by spacing addresses sets*64 apart.
	c := NewSetAssoc(2*2*LineSize, 2, LRU) // 2 sets, 2 ways
	step := uint64(c.Sets() * LineSize)
	a, b, d := uint64(0), step, 2*step
	c.Fill(a, lineOf(1))
	c.Fill(b, lineOf(2))
	c.Read(a) // make a MRU
	c.Fill(d, lineOf(3))
	if c.Read(b).Hit {
		t.Fatal("LRU victim survived")
	}
	if !c.Read(a).Hit || !c.Read(d).Hit {
		t.Fatal("wrong line evicted")
	}
}

func TestFIFOEvictionIgnoresTouches(t *testing.T) {
	c := NewSetAssoc(2*2*LineSize, 2, FIFO)
	step := uint64(c.Sets() * LineSize)
	a, b, d := uint64(0), step, 2*step
	c.Fill(a, lineOf(1))
	c.Fill(b, lineOf(2))
	c.Read(a) // FIFO must ignore this
	c.Fill(d, lineOf(3))
	if c.Read(a).Hit {
		t.Fatal("FIFO kept oldest line despite touch")
	}
	if !c.Read(b).Hit {
		t.Fatal("FIFO evicted wrong line")
	}
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	c := NewSetAssoc(2*1*LineSize, 1, LRU) // 2 sets, direct-mapped
	step := uint64(c.Sets() * LineSize)
	c.WriteBack(0, lineOf(9))
	wbs := c.Fill(step, lineOf(1))
	if len(wbs) != 1 || wbs[0].Addr != 0 || !bytes.Equal(wbs[0].Data, lineOf(9)) {
		t.Fatalf("expected dirty writeback of addr 0, got %+v", wbs)
	}
	// Clean eviction: no writeback.
	wbs = c.Fill(2*step, lineOf(2))
	if len(wbs) != 0 {
		t.Fatalf("clean eviction produced writeback: %+v", wbs)
	}
}

func TestFillPreservesDirtiness(t *testing.T) {
	c := NewSetAssoc(4*LineSize, 1, LRU)
	c.WriteBack(0, lineOf(5)) // dirty
	c.Fill(0, lineOf(6))      // refill same line must stay dirty
	_, dirty, ok := c.Invalidate(0)
	if !ok || !dirty {
		t.Fatal("refill dropped dirtiness")
	}
}

func TestUpdate(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	if c.Update(0x40, lineOf(1), true) {
		t.Fatal("update hit on absent line")
	}
	c.Fill(0x40, lineOf(1))
	if !c.Update(0x40, lineOf(2), true) {
		t.Fatal("update missed present line")
	}
	r := c.Read(0x40)
	if !bytes.Equal(r.Data, lineOf(2)) {
		t.Fatal("update did not change data")
	}
	_, dirty, _ := c.Invalidate(0x40)
	if !dirty {
		t.Fatal("update did not mark dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	c.Fill(0x80, lineOf(3))
	data, dirty, ok := c.Invalidate(0x80)
	if !ok || dirty || !bytes.Equal(data, lineOf(3)) {
		t.Fatal("invalidate of clean line")
	}
	if c.Read(0x80).Hit {
		t.Fatal("line still present after invalidate")
	}
	if _, _, ok := c.Invalidate(0x80); ok {
		t.Fatal("double invalidate reported ok")
	}
}

func TestRatioIsOccupancy(t *testing.T) {
	c := NewSetAssoc(4*LineSize, 1, LRU)
	if c.Ratio() != 0 {
		t.Fatal("empty cache ratio")
	}
	c.Fill(0, lineOf(0))
	c.Fill(LineSize, lineOf(0))
	if c.Ratio() != 0.5 {
		t.Fatalf("ratio = %g, want 0.5", c.Ratio())
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	c.Read(0) // miss
	c.Fill(0, lineOf(0))
	c.Read(0) // hit
	c.WriteBack(64, lineOf(1))
	s := c.Stats()
	if s.Reads != 2 || s.Hits != 1 || s.Misses != 1 || s.Fills != 1 || s.WriteBacks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g", s.HitRate())
	}
}

func TestDataIsCopied(t *testing.T) {
	c := NewSetAssoc(8*1024, 4, LRU)
	d := lineOf(1)
	c.Fill(0, d)
	d[0] = 99 // caller mutation must not leak in
	if c.Read(0).Data[0] == 99 {
		t.Fatal("cache aliased caller buffer")
	}
}

func TestInvariantsUnderMixedOps(t *testing.T) {
	for _, repl := range []ReplacementKind{LRU, FIFO} {
		c := NewSetAssoc(4*2*LineSize, 2, repl) // 4 sets, 2 ways: evictions happen fast
		r := rng.New(42)
		for i := 0; i < 2000; i++ {
			addr := uint64(r.Intn(64)) * LineSize
			switch r.Intn(4) {
			case 0:
				c.Fill(addr, lineOf(byte(i)))
			case 1:
				c.WriteBack(addr, lineOf(byte(i)))
			case 2:
				c.Read(addr)
			case 3:
				c.Invalidate(addr)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("repl %v, after op %d on %#x: %v", repl, i, addr, err)
			}
		}
	}
}

func TestNoPhantomHitsProperty(t *testing.T) {
	// Property: a line is hit iff it was inserted and not since evicted;
	// verified against a reference map for a direct-mapped cache.
	f := func(seed uint64, ops []uint8) bool {
		c := NewSetAssoc(8*LineSize, 1, LRU) // 8 sets, direct-mapped
		ref := map[uint64]bool{}             // line -> present
		setOwner := map[int]uint64{}
		r := rng.New(seed)
		for range ops {
			addr := uint64(r.Intn(32)) * LineSize
			set := int(LineTag(addr) % 8)
			if r.Bool(0.5) {
				res := c.Read(addr)
				if res.Hit != ref[addr] {
					return false
				}
			} else {
				c.Fill(addr, lineOf(byte(addr)))
				if prev, ok := setOwner[set]; ok && prev != addr {
					ref[prev] = false
				}
				setOwner[set] = addr
				ref[addr] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneLineAllocs pins the ownership-transfer funnel at a single
// allocation per copy: that is the whole point of routing every
// fill-path line copy through it.
func TestCloneLineAllocs(t *testing.T) {
	line := lineOf(7)
	var cloned []byte
	allocs := testing.AllocsPerRun(100, func() { cloned = CloneLine(line) })
	if allocs != 1 {
		t.Fatalf("CloneLine allocates %.0f objects per clone, want exactly 1", allocs)
	}
	_ = cloned
}
