package lbe

import (
	"encoding/binary"
	"fmt"

	"morc/internal/compress/bitstream"
)

// Decoder decompresses an LBE stream produced by an Encoder with the same
// Config. It mirrors the encoder's dictionary state exactly: literals are
// inserted into the 32-bit dictionary as they are decoded and failed large
// blocks are allocated after each chunk, so decoding is possible from the
// start of the stream only — the property that gives MORC its variable,
// position-dependent decompression latency (§2.2).
type Decoder struct {
	r   *bitstream.Reader
	d   dicts
	out int // total bytes decoded
}

// NewDecoder returns a decoder over the first nbits of data (nbits < 0
// means the whole slice).
func NewDecoder(cfg Config, data []byte, nbits int) *Decoder {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	d := &Decoder{r: bitstream.NewReader(data, nbits)}
	d.d.init(cfg)
	return d
}

// OutputBytes returns the number of uncompressed bytes produced so far.
// Consumers convert this to decompression latency at 16 bytes per cycle.
func (d *Decoder) OutputBytes() int { return d.out }

// BitPos returns the current position in the compressed stream.
func (d *Decoder) BitPos() int { return d.r.Pos() }

// Next decodes the next n uncompressed bytes (n must be a positive
// multiple of 32).
func (d *Decoder) Next(n int) ([]byte, error) {
	if n <= 0 || n%32 != 0 {
		return nil, fmt.Errorf("lbe: Next(%d) must be a positive multiple of 32", n)
	}
	out := make([]byte, n)
	for off := 0; off < n; off += 32 {
		chunk := out[off : off+32]
		if err := d.decodeRegion(chunk, lvl256, 0); err != nil {
			return nil, err
		}
		// Mirror the encoder's post-chunk allocation.
		d.d.allocFailed(chunk)
	}
	d.out += n
	return out, nil
}

// readSymbol decodes one prefix code from Table 3.
func (d *Decoder) readSymbol() (Symbol, error) {
	b1, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b1 == 0 {
		b2, err := d.r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b2 == 0 {
			return SymU32, nil // 00
		}
		return SymM32, nil // 01
	}
	b2, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b2 == 0 {
		b3, err := d.r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b3 == 0 {
			return SymU16, nil // 100
		}
		b4, err := d.r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b4 == 0 {
			return SymZ32, nil // 1010
		}
		return SymU8, nil // 1011
	}
	b3, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b3 == 0 {
		b4, err := d.r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b4 == 0 {
			return SymM64, nil // 1100
		}
		return SymZ64, nil // 1101
	}
	b4, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	b5, err := d.r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	switch {
	case b4 == 0 && b5 == 0:
		return SymM128, nil // 11100
	case b4 == 0 && b5 == 1:
		return SymZ128, nil // 11101
	case b4 == 1 && b5 == 0:
		return SymM256, nil // 11110
	default:
		return SymZ256, nil // 11111
	}
}

// symLevel returns the granularity level a symbol operates at.
func symLevel(s Symbol) int {
	switch s {
	case SymU8, SymU16, SymU32, SymM32, SymZ32:
		return lvl32
	case SymM64, SymZ64:
		return lvl64
	case SymM128, SymZ128:
		return lvl128
	default:
		return lvl256
	}
}

func (d *Decoder) decodeRegion(chunk []byte, lvl, off int) error {
	sym, err := d.readSymbol()
	if err != nil {
		return err
	}
	return d.decodeRegionWithSymbol(chunk, lvl, off, sym)
}

// decodeRegionWithSymbol is decodeRegion where the first symbol has
// already been consumed from the stream. A symbol below the region's
// level means the region failed at this granularity and the symbol
// belongs to its first half.
func (d *Decoder) decodeRegionWithSymbol(chunk []byte, lvl, off int, sym Symbol) error {
	g := granBytes(lvl)
	region := chunk[off : off+g]
	sl := symLevel(sym)
	if sl > lvl {
		return fmt.Errorf("lbe: symbol %v at level %d region (corrupt stream)", sym, lvl)
	}
	if sl < lvl {
		d.d.failed = append(d.d.failed, [2]int{lvl, off})
		half := g / 2
		if err := d.decodeRegionWithSymbol(chunk, lvl-1, off, sym); err != nil {
			return err
		}
		return d.decodeRegion(chunk, lvl-1, off+half)
	}
	return d.applySymbol(region, lvl, sym)
}

// applySymbol materializes a symbol whose level matches the region.
func (d *Decoder) applySymbol(region []byte, lvl int, sym Symbol) error {
	switch {
	case sym.IsZero():
		for i := range region {
			region[i] = 0
		}
		return nil
	case sym == SymM32 || sym == SymM64 || sym == SymM128 || sym == SymM256:
		t := &d.d.t[lvl]
		idx, err := d.r.ReadBits(t.ptrBits)
		if err != nil {
			return err
		}
		if int(idx) >= t.n {
			return fmt.Errorf("lbe: match pointer %d beyond dictionary of %d (corrupt stream)", idx, t.n)
		}
		copy(region, t.entry(int(idx)))
		return nil
	case sym == SymU8:
		v, err := d.r.ReadBits(8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(region, uint32(v))
		d.d.t[lvl32].add(region)
		return nil
	case sym == SymU16:
		v, err := d.r.ReadBits(16)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(region, uint32(v))
		d.d.t[lvl32].add(region)
		return nil
	case sym == SymU32:
		v, err := d.r.ReadBits(32)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(region, uint32(v))
		d.d.t[lvl32].add(region)
		return nil
	}
	return fmt.Errorf("lbe: unhandled symbol %v", sym)
}
