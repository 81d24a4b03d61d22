// Package lbe implements Large-Block Encoding, the MORC paper's data
// compression algorithm (§3.2.5, Table 3).
//
// LBE is a streaming, dictionary-based codec that reads input in 256-bit
// (32-byte) chunks and dynamically chooses the match granularity: 32, 64,
// 128 or 256 bits. Each granularity has its own logical dictionary; only
// the 32-bit dictionary holds data, with larger entries acting as binary
// trees of pointers into it (a hardware detail — this software model
// stores the bytes directly, which produces the identical bitstream).
//
// Symbol prefixes (Table 3 of the paper):
//
//	u32  00      + 32b literal      m64   1100  + ptr
//	m32  01      + ptr              z64   1101
//	u16  100     + 16b literal      m128  11100 + ptr
//	z32  1010                       z128  11101
//	u8   1011    + 8b literal       m256  11110 + ptr
//	                                z256  11111
//
// Literals (u8/u16/u32) create a new 32-bit dictionary entry. After each
// 256-bit chunk, dictionary entries are allocated for every 64/128/256-bit
// sub-chunk that failed to compress as a single symbol, provided every
// constituent 32-bit word is representable (zero or present in the 32-bit
// dictionary) and the granularity's dictionary is not yet full.
// Dictionaries freeze when full, exactly like C-Pack's.
//
// Each granularity's dictionary is one fixed table that the Encoder and
// Decoder build the same way: entries stored back to back, found through
// an open-addressing index.
//
// The Encoder supports trial appends: MORC compresses an inserted line
// into all active logs but commits only the winner (§3.2.3). Append
// writes the block's new dictionary entries above the committed ones and
// its bits into encoder scratch, and returns a Pending that the caller
// either commits or drops. Only an encoder's latest trial can commit: the
// next Append discards an uncommitted trial.
package lbe

import (
	"encoding/binary"
	"fmt"

	"morc/internal/compress/bitstream"
)

// Symbol identifies an LBE encoding symbol, for the Figure 7 usage study.
type Symbol int

// Symbol values in Table 3 order.
const (
	SymU8 Symbol = iota
	SymU16
	SymU32
	SymM32
	SymZ32
	SymM64
	SymZ64
	SymM128
	SymZ128
	SymM256
	SymZ256
	numSymbols
)

// String returns the paper's name for the symbol.
func (s Symbol) String() string {
	switch s {
	case SymU8:
		return "u8"
	case SymU16:
		return "u16"
	case SymU32:
		return "u32"
	case SymM32:
		return "m32"
	case SymZ32:
		return "z32"
	case SymM64:
		return "m64"
	case SymZ64:
		return "z64"
	case SymM128:
		return "m128"
	case SymZ128:
		return "z128"
	case SymM256:
		return "m256"
	case SymZ256:
		return "z256"
	}
	return fmt.Sprintf("Symbol(%d)", int(s))
}

// DataBytes returns how many bytes of output the symbol represents.
func (s Symbol) DataBytes() int {
	switch s {
	case SymU8, SymU16, SymU32, SymM32, SymZ32:
		return 4
	case SymM64, SymZ64:
		return 8
	case SymM128, SymZ128:
		return 16
	case SymM256, SymZ256:
		return 32
	}
	return 0
}

// IsZero reports whether the symbol encodes an all-zero block.
func (s Symbol) IsZero() bool {
	switch s {
	case SymZ32, SymZ64, SymZ128, SymZ256:
		return true
	}
	return false
}

// SymbolStats counts symbol usage, indexed by Symbol.
type SymbolStats [numSymbols]uint64

// Add accumulates other into s.
func (s *SymbolStats) Add(other SymbolStats) {
	for i := range s {
		s[i] += other[i]
	}
}

// Config sets the per-granularity dictionary entry counts. The paper sizes
// the LBE dictionary at 512 bytes of leaf (32-bit) storage.
type Config struct {
	Dict32  int // 32-bit entries (hold data)
	Dict64  int // 64-bit tree entries
	Dict128 int
	Dict256 int
}

// DefaultConfig is the configuration evaluated in the paper: a 512-byte
// 32-bit dictionary (128 entries) with tree dictionaries scaled so that
// every granularity can cover the same span.
func DefaultConfig() Config {
	return Config{Dict32: 128, Dict64: 64, Dict128: 32, Dict256: 16}
}

func (c Config) validate() error {
	for _, n := range [4]int{c.Dict32, c.Dict64, c.Dict128, c.Dict256} {
		if n < 1 || n > maxDictEntries {
			return fmt.Errorf("lbe: all dictionary sizes must be in [1, %d]: %+v", maxDictEntries, c)
		}
	}
	return nil
}

// Encoder compresses a stream of 32-byte-multiple blocks, maintaining
// dictionary state across appends (one Encoder per MORC log).
type Encoder struct {
	w     *bitstream.Writer
	d     dicts
	stats SymbolStats
	inLen int // uncompressed bytes committed

	// seq counts Appends and Commits, so a Pending can commit only while
	// it is the latest trial and still uncommitted.
	seq uint64
	// The latest trial's bits, symbol counts and input length wait here
	// until Commit; its dictionary entries sit above the watermarks.
	tbits  []pendBit
	tn     int
	tstats SymbolStats
	tin    int
}

type pendBit struct {
	v uint64
	n int
}

const (
	lvl32 = iota
	lvl64
	lvl128
	lvl256
)

func granBytes(lvl int) int { return 4 << uint(lvl) }

// NewEncoder returns an empty encoder with the given configuration.
func NewEncoder(cfg Config) *Encoder {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	e := &Encoder{w: bitstream.NewWriter()}
	e.d.init(cfg)
	return e
}

// Bits returns the compressed stream length in bits.
func (e *Encoder) Bits() int { return e.w.Len() }

// Bytes returns the compressed stream (padded to a byte boundary).
func (e *Encoder) Bytes() []byte { return e.w.Bytes() }

// InputBytes returns the total uncompressed bytes appended so far.
func (e *Encoder) InputBytes() int { return e.inLen }

// Stats returns a copy of the symbol usage counters.
func (e *Encoder) Stats() SymbolStats { return e.stats }

// Pending is the result of a trial Append. The bits, symbol counts and
// dictionary entries it would add wait in the encoder until Commit.
type Pending struct {
	enc  *Encoder
	seq  uint64
	bits int
}

// Bits returns the number of compressed bits this append would add.
func (p Pending) Bits() int { return p.bits }

// Append trial-compresses block (length must be a positive multiple of 32)
// against the encoder's committed state, returning a Pending that the
// caller commits with Commit or simply drops. It first discards the
// previous trial if that was not committed. The committed stream,
// dictionaries and counters are unchanged until Commit.
func (e *Encoder) Append(block []byte) Pending {
	if len(block) == 0 || len(block)%32 != 0 {
		panic(fmt.Sprintf("lbe: Append block of %d bytes (need positive multiple of 32)", len(block)))
	}
	for lvl := range e.d.t {
		e.d.t[lvl].rollback()
	}
	e.seq++
	e.tbits, e.tn, e.tstats, e.tin = e.tbits[:0], 0, SymbolStats{}, len(block)
	for off := 0; off < len(block); off += 32 {
		chunk := block[off : off+32]
		e.encodeRegion(chunk, lvl256, 0)
		e.d.allocFailed(chunk)
	}
	return Pending{enc: e, seq: e.seq, bits: e.tn}
}

// Commit applies a pending append produced by this encoder. Only the
// encoder's latest Append can commit, and only once.
func (e *Encoder) Commit(p Pending) {
	if p.enc != e {
		panic("lbe: Commit of pending from another encoder")
	}
	if p.seq != e.seq {
		panic("lbe: Commit of a pending that is not the latest uncommitted trial")
	}
	for _, b := range e.tbits {
		e.w.WriteBits(b.v, b.n)
	}
	for lvl := range e.d.t {
		e.d.t[lvl].committed = e.d.t[lvl].n
	}
	e.stats.Add(e.tstats)
	e.inLen += e.tin
	e.seq++
}

// AppendCommit is the one-shot form used when no trial is needed.
func (e *Encoder) AppendCommit(block []byte) int {
	p := e.Append(block)
	e.Commit(p)
	return p.Bits()
}

func isZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// symbol codes from Table 3: value and bit-width of the prefix.
var symCode = [numSymbols]struct{ v, n int }{
	SymU8:   {0b1011, 4},
	SymU16:  {0b100, 3},
	SymU32:  {0b00, 2},
	SymM32:  {0b01, 2},
	SymZ32:  {0b1010, 4},
	SymM64:  {0b1100, 4},
	SymZ64:  {0b1101, 4},
	SymM128: {0b11100, 5},
	SymZ128: {0b11101, 5},
	SymM256: {0b11110, 5},
	SymZ256: {0b11111, 5},
}

var (
	zSym = [4]Symbol{SymZ32, SymZ64, SymZ128, SymZ256}
	mSym = [4]Symbol{SymM32, SymM64, SymM128, SymM256}
)

func (e *Encoder) emit(v uint64, n int) {
	e.tbits = append(e.tbits, pendBit{v, n})
	e.tn += n
}

func (e *Encoder) emitSym(s Symbol) {
	c := symCode[s]
	e.emit(uint64(c.v), c.n)
	e.tstats[s]++
}

// encodeRegion compresses region (granBytes(lvl) bytes at offset off of
// the chunk). It records failed 64/128/256-bit regions for post-chunk
// dictionary allocation.
func (e *Encoder) encodeRegion(chunk []byte, lvl, off int) {
	g := granBytes(lvl)
	region := chunk[off : off+g]
	if isZero(region) {
		e.emitSym(zSym[lvl])
		return
	}
	t := &e.d.t[lvl]
	if idx, ok := t.lookup(region); ok {
		e.emitSym(mSym[lvl])
		e.emit(uint64(idx), t.ptrBits)
		return
	}
	if lvl > lvl32 {
		e.d.failed = append(e.d.failed, [2]int{lvl, off})
		half := g / 2
		e.encodeRegion(chunk, lvl-1, off)
		e.encodeRegion(chunk, lvl-1, off+half)
		return
	}
	// 32-bit literal with upper-zero truncation (u8/u16/u32). Words are
	// interpreted little-endian, matching the x86 memory images the paper
	// traces: a small integer has zero bytes at the high addresses.
	w := binary.LittleEndian.Uint32(region)
	switch {
	case w < 1<<8:
		e.emitSym(SymU8)
		e.emit(uint64(w), 8)
	case w < 1<<16:
		e.emitSym(SymU16)
		e.emit(uint64(w), 16)
	default:
		e.emitSym(SymU32)
		e.emit(uint64(w), 32)
	}
	t.add(region)
}
