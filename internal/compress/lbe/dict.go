package lbe

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// maxDictEntries bounds each dictionary so that an entry number plus one
// fits the uint16 index.
const maxDictEntries = 1 << 15

// table is one granularity's dictionary: a fixed array of gran-byte
// entries stored back to back, append-only and frozen when full, which is
// the stream-preservation requirement of §2.2. index is an open-addressing
// (linear probing) hash of entry contents holding entry+1, 0 marking an
// empty slot; it has at least twice as many slots as entries, so a probe
// always ends.
//
// The encoder adds a trial's entries above committed. Removing them newest
// first restores the index exactly: when an entry was added, every slot on
// its probe path was held by an older entry and its own slot was empty.
type table struct {
	gran      int
	cap       int
	n         int  // entries in use
	committed int  // entries that belong to committed appends
	ptrBits   int  // width of a match pointer into the table
	shift     uint // 64 - log2(len(index))
	data      []byte
	index     []uint16
}

func (t *table) entry(i int) []byte { return t.data[i*t.gran : (i+1)*t.gran] }

// find returns the slot holding b, or the empty slot that ends b's probe.
func (t *table) find(b []byte) (slot int, found bool) {
	var h uint64
	for i := 0; i < len(b); i += 4 {
		h = (h ^ uint64(binary.LittleEndian.Uint32(b[i:]))) * 0x9e3779b97f4a7c15
	}
	mask := len(t.index) - 1
	for s := int(h >> t.shift); ; s = (s + 1) & mask {
		e := int(t.index[s])
		if e == 0 {
			return s, false
		}
		if bytes.Equal(t.entry(e-1), b) {
			return s, true
		}
	}
}

func (t *table) lookup(b []byte) (int, bool) {
	s, ok := t.find(b)
	return int(t.index[s]) - 1, ok
}

// add inserts b if there is room and it is not already present.
func (t *table) add(b []byte) {
	if t.n >= t.cap {
		return
	}
	s, ok := t.find(b)
	if ok {
		return
	}
	t.index[s] = uint16(t.n + 1)
	copy(t.data[t.n*t.gran:], b)
	t.n++
}

// rollback removes the entries above the committed watermark.
func (t *table) rollback() {
	for t.n > t.committed {
		t.n--
		s, _ := t.find(t.entry(t.n))
		t.index[s] = 0
	}
}

// dicts is the dictionary state an Encoder and its Decoder evolve
// identically: one table per granularity level, plus the regions of the
// current chunk that failed to compress as a single symbol.
type dicts struct {
	t      [4]table
	failed [][2]int // (level, offset) of failed 64/128/256-bit regions
}

func (d *dicts) init(cfg Config) {
	for lvl, c := range [4]int{cfg.Dict32, cfg.Dict64, cfg.Dict128, cfg.Dict256} {
		slots := 1
		for slots < 2*c {
			slots <<= 1
		}
		d.t[lvl] = table{
			gran:    granBytes(lvl),
			cap:     c,
			ptrBits: max(1, bits.Len(uint(c-1))),
			shift:   uint(64 - bits.TrailingZeros(uint(slots))),
			data:    make([]byte, c*granBytes(lvl)),
			index:   make([]uint16, slots),
		}
	}
}

// representable reports whether every 32-bit word of region is zero or
// present in the 32-bit dictionary — the condition for a binary-tree
// entry at a larger granularity to have valid leaf pointers.
func (d *dicts) representable(region []byte) bool {
	for off := 0; off < len(region); off += 4 {
		w := region[off : off+4]
		if isZero(w) {
			continue
		}
		if _, ok := d.t[lvl32].lookup(w); !ok {
			return false
		}
	}
	return true
}

// allocFailed performs the post-chunk allocation (paper: "before
// compressing the next 256b chunk, LBE allocates dictionary entries for
// any of the 64/128/256b chunks that failed to compress") and clears the
// failed list. Children go first so parents can be expressed as trees
// over existing entries.
func (d *dicts) allocFailed(chunk []byte) {
	for lvl := lvl64; lvl <= lvl256; lvl++ {
		for _, f := range d.failed {
			if f[0] != lvl {
				continue
			}
			region := chunk[f[1] : f[1]+granBytes(lvl)]
			if d.representable(region) {
				d.t[lvl].add(region)
			}
		}
	}
	d.failed = d.failed[:0]
}
