package tsdb

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// A series is held as a list of chunks, each at most chunkLen samples
// in Gorilla encoding (Pelkonen et al., VLDB 2015): every instant as
// the difference between its delta to the previous sample and the
// delta before it, and every value as the XOR of its float64 bits with
// the previous value's bits. Steady-cadence series cost one bit an
// instant and constant ones one bit a value. A chunk is a bitstream
// read from its start; every chunk encodes from the zero cursor, so
// the first sample's instant and value are deltas from zero.
//
// Instant, per sample, with dod = (ns − prev ns) − (prev ns − the one
// before), wrapped in uint64 so that a jump between the ends of the
// int64 range encodes too:
//
//	0                 dod = 0
//	10   + 14 bits    dod in [−2^13, 2^13)
//	110  + 24 bits    dod in [−2^23, 2^23)
//	1110 + 36 bits    dod in [−2^35, 2^35)
//	1111 + 64 bits    any other
//
// Value, per sample, with x = bits XOR prev bits:
//
//	0                                          x = 0
//	10 + the window's bits of x                x fits the previous window
//	11 + 5 bits leading zeros + 6 bits length  a new window, then its bits
//	   (64 written as 0)
//
// A full chunk is sealed in the shorter of two value encodings, chosen
// from its samples alone. If every value is an exact decimal at one
// exponent e (decimal.scan), the chunk may be decimal: each value is
// stored as the integer n = v·10^e, the first in 64 bits and each later
// one as the zigzag difference from the one before, all in one width,
// the least that holds the chunk's widest. Instants are coded as above,
// and each value's code follows its instant's. The chunk is decimal when
// that stream has fewer bits than the Gorilla one, which it keeps
// otherwise. This is the value side of ALP (Afroozeh et al., SIGMOD
// 2023), without its exception lists.
const chunkLen = 120

// dodWidths are the payload widths of the instant encoding's bounded
// classes, in the order of their prefixes.
var dodWidths = [...]uint{14, 24, 36}

// pow10 holds the decimal exponents a chunk may take: 10^e for e in
// 0..9, each exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// maxChunkBytes bounds a whole chunk's stream in either encoding, with
// the 8 bytes bitWriter.spill writes past the end: at most 68 bits an
// instant and 77 a Gorilla value.
const maxChunkBytes = chunkLen*(68+77)/8 + 8

// scratch holds *[maxChunkBytes]byte buffers that a new chunk's stream
// is written into before it is copied out at its length, so that each
// chunk costs one allocation.
var scratch = sync.Pool{New: func() any { return new([maxChunkBytes]byte) }}

// chunk is one run of encoded samples, 40 bytes.
type chunk struct {
	b     []byte // the bitstream; a sealed chunk's is cut to its length
	last  int64  // the newest sample's instant
	n     uint8  // samples encoded
	dec   bool   // values are decimal integers, not XOR-ed float bits
	exp   uint8  // a decimal chunk's exponent: v = n / 10^exp
	width uint8  // a decimal chunk's bits per zigzag difference
}

// cursor is the codec's state between two samples of a chunk: the
// sample just written or read, and where the next one starts. The zero
// cursor stands before a chunk's first sample.
type cursor struct {
	ns    int64  // instant of the current sample, Unix ns
	delta uint64 // ns minus the previous sample's, wrapped
	bits  uint64 // float64 bits of the current value; in a decimal chunk, its integer
	pos   uint32 // bit offset of the next sample
	i     int    // samples up to and including the current one
	lead  uint8  // leading zeros of the value window
	sig   uint8  // width of the value window, 0 before the first
}

// value is the current sample's value where bits holds float64 bits:
// in a Gorilla chunk, and in a series' tail, which sealed leaves so.
func (c *cursor) value() float64 { return math.Float64frombits(c.bits) }

// putInstant writes the code of instant ns, newer than c's, to w.
func (c *cursor) putInstant(w *bitWriter, ns int64) {
	delta := uint64(ns - c.ns)
	dod := int64(delta - c.delta)
	c.ns, c.delta = ns, delta
	switch {
	case dod == 0:
		w.add(0, 1)
	case fits(dod, dodWidths[0]):
		w.add(0b10, 2)
		w.add(uint64(dod)&(1<<dodWidths[0]-1), dodWidths[0])
	case fits(dod, dodWidths[1]):
		w.add(0b110, 3)
		w.add(uint64(dod)&(1<<dodWidths[1]-1), dodWidths[1])
	case fits(dod, dodWidths[2]):
		w.add(0b1110, 4)
		w.add(uint64(dod)&(1<<dodWidths[2]-1), dodWidths[2])
	default:
		w.add(0b1111, 4)
		w.add64(uint64(dod), 64)
	}
}

// put Gorilla-encodes samples, in instant order and newer than c's, at
// the end of b, which c has written so far, and returns the extended
// stream.
func (c *cursor) put(b []byte, ss []sample) []byte {
	w := bitWriter{b: b}
	if off := uint(c.pos & 7); off != 0 { // the last byte is partial
		w.b, w.acc, w.n = b[:len(b)-1], uint64(b[len(b)-1]>>(8-off)), off
	}
	for _, s := range ss {
		c.putInstant(&w, s.ns)
		vb := math.Float64bits(s.v)
		x := vb ^ c.bits
		c.bits = vb
		if x == 0 {
			w.add(0, 1)
		} else {
			lead := uint8(min(bits.LeadingZeros64(x), 31))
			trail := uint8(bits.TrailingZeros64(x))
			// The previous window is kept while it costs no more bits
			// than a new header and its own bits would.
			if c.sig != 0 && lead >= c.lead && trail >= 64-c.lead-c.sig && c.sig <= 64-lead-trail+11 {
				w.add(0b10, 2)
			} else {
				c.lead, c.sig = lead, 64-lead-trail
				w.add(0b11<<11|uint64(lead)<<6|uint64(c.sig&63), 13)
			}
			w.add64(x>>(64-c.lead-c.sig), uint(c.sig))
		}
		c.i++
	}
	b, c.pos = w.finish()
	return b
}

// scaled returns v·10^e rounded to an integer, and whether that integer
// is below 2^53 in magnitude and gives back v's bits divided by 10^e, as
// the decoder divides. −0, NaN and ±Inf never do.
func scaled(v float64, e uint8) (int64, bool) {
	f := math.Round(v * pow10[e])
	if !(math.Abs(f) < 1<<53) {
		return 0, false
	}
	n := int64(f)
	return n, math.Float64bits(float64(n)/pow10[e]) == math.Float64bits(v)
}

// zigzag maps a signed difference to an unsigned one, small magnitudes
// to small numbers.
func zigzag(d int64) uint64 { return uint64(d<<1 ^ d>>63) }

// decimal is a chunk's values as integers scaled by 10^exp.
type decimal struct {
	ints  [chunkLen]int64
	exp   uint8
	width uint8 // bits of the widest zigzag difference
}

// scan finds the decimal form of ss's values, at the smallest exponent
// at which every one is exact (scaled), and reports whether there is one.
func (d *decimal) scan(ss []sample) bool {
	*d = decimal{}
	for i := 0; i < len(ss); {
		n, ok := scaled(ss[i].v, d.exp)
		if ok {
			d.ints[i] = n
			i++
			continue
		}
		if d.exp++; int(d.exp) == len(pow10) {
			return false
		}
		i = 0 // every value is checked at the exponent taken
	}
	for i := 1; i < len(ss); i++ {
		d.width = max(d.width, uint8(bits.Len64(zigzag(d.ints[i]-d.ints[i-1]))))
	}
	return true
}

// put writes the decimal stream of ss, which d was scanned from, at the
// start of b and returns it and its length in bits.
func (d *decimal) put(b []byte, ss []sample) ([]byte, uint32) {
	w := bitWriter{b: b}
	var c cursor
	for i, s := range ss {
		c.putInstant(&w, s.ns)
		if i == 0 {
			w.add64(uint64(d.ints[0]), 64)
		} else {
			w.add64(zigzag(d.ints[i]-d.ints[i-1]), uint(d.width))
		}
	}
	return w.finish()
}

// xorFloor is at most the bits Gorilla spends on ss's values: one for a
// repeat, and for a change at least its two-bit prefix and the XOR's
// meaningful bits.
func xorFloor(ss []sample) int {
	n, prev := 0, uint64(0)
	for _, s := range ss {
		vb := math.Float64bits(s.v)
		if x := vb ^ prev; x == 0 {
			n++
		} else {
			n += 2 + 64 - bits.LeadingZeros64(x) - bits.TrailingZeros64(x)
		}
		prev = vb
	}
	return n
}

// sealed returns the final form of a full chunk holding ss and leaves c
// after its last sample. For a chunk filled by appends, c has written
// its Gorilla stream g; for one pushed whole, c is zero and g nil. The
// chunk is decimal if ss has a decimal form whose stream has fewer bits
// than the Gorilla one; else it is the Gorilla stream. Either is copied
// out at its length. A chunk pushed whole is encoded from its samples
// only, and its Gorilla stream is not written when the decimal one is
// shorter than any Gorilla stream of those values could be.
func sealed(c *cursor, ss []sample, g []byte) chunk {
	last := ss[len(ss)-1]
	ch := chunk{last: last.ns, n: uint8(len(ss))}
	var d decimal
	exact := d.scan(ss)
	// A decimal stream spends 64 bits on the first value and the width
	// on each later one.
	if g == nil && !(exact && 64+(len(ss)-1)*int(d.width) < xorFloor(ss)) {
		buf := scratch.Get().(*[maxChunkBytes]byte)
		defer scratch.Put(buf)
		g = c.put(buf[:0], ss)
	}
	if exact {
		buf := scratch.Get().(*[maxChunkBytes]byte)
		defer scratch.Put(buf)
		if b, n := d.put(buf[:0], ss); g == nil || n < c.pos {
			if g == nil {
				// No Gorilla state to go on from, and a full chunk takes
				// no more samples: c keeps the newest instant and value,
				// which Latest reads.
				*c = cursor{ns: last.ns, bits: math.Float64bits(last.v), i: len(ss)}
			}
			ch.b, ch.dec, ch.exp, ch.width = slices.Clone(b), true, d.exp, d.width
			return ch
		}
	}
	ch.b = slices.Clone(g)
	return ch
}

// newChunk returns a chunk holding ss, at most chunkLen samples, and
// sets c after its last sample. A whole chunk is sealed at once. A
// partial one is the open Gorilla stream, its buffer sized to what it
// holds and 16 bytes more for the appends to come: its own samples
// predict its length, whichever encoding the chunk before it took.
func newChunk(c *cursor, ss []sample) chunk {
	*c = cursor{}
	if len(ss) == chunkLen {
		return sealed(c, ss, nil)
	}
	buf := scratch.Get().(*[maxChunkBytes]byte)
	defer scratch.Put(buf)
	b := c.put(buf[:0], ss)
	return chunk{b: append(make([]byte, 0, len(b)+16), b...), last: ss[len(ss)-1].ns, n: uint8(len(ss))}
}

// seal gives a Gorilla chunk that takes no more appends, which c has
// written, its final form (sealed).
func (ch *chunk) seal(c *cursor) {
	var buf [chunkLen]sample
	var from cursor
	*ch = sealed(c, from.decode(ch, buf[:0]), ch.b)
}

// bitWriter appends bits to a stream through a 64-bit accumulator.
type bitWriter struct {
	b   []byte
	acc uint64 // its low n bits are pending, the oldest first
	n   uint
}

// add appends the low n ≤ 56 bits of u, which holds no higher bits.
func (w *bitWriter) add(u uint64, n uint) {
	if w.n+n > 64 {
		w.spill()
	}
	w.acc = w.acc<<n | u
	w.n += n
}

// add64 is add for up to 64 bits.
func (w *bitWriter) add64(u uint64, n uint) {
	if n > 32 {
		w.add(u>>32, n-32)
		u, n = u&(1<<32-1), 32
	}
	w.add(u, n)
}

// spill moves the pending whole bytes to the stream.
func (w *bitWriter) spill() {
	n := len(w.b) + int(w.n/8)
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc<<(64-w.n))[:n]
	w.n %= 8
}

// finish writes out the pending bits, the last byte zero-padded, and
// returns the stream and its length in bits.
func (w *bitWriter) finish() ([]byte, uint32) {
	w.spill()
	bits := uint32(len(w.b)*8) + uint32(w.n)
	if w.n > 0 {
		w.b = append(w.b, byte(w.acc<<(8-w.n)))
	}
	return w.b, bits
}

// fits reports whether v is representable in n-bit two's complement.
func fits(v int64, n uint) bool { return -1<<(n-1) <= v && v < 1<<(n-1) }

// decode appends to buf the samples of ch after c's, until buf is full
// or all ch.n are read, and moves c past them.
func (c *cursor) decode(ch *chunk, buf []sample) []sample {
	// The state lives in locals for the loop, which is every read's.
	ns, delta, vbits, pos, i, lead, sig := c.ns, c.delta, c.bits, uint(c.pos), c.i, uint(c.lead), uint(c.sig)
	b, dec, width, scale := ch.b, ch.dec, uint(ch.width), pow10[ch.exp]
	start := len(buf)
	buf = buf[:start+min(int(ch.n)-i, cap(buf)-start)]
	for k := start; k < len(buf); k++ {
		w := window(b, pos)
		switch ones := uint(bits.LeadingZeros64(^w)); {
		case ones == 0:
			pos++
			w <<= 1
		case ones < 4:
			width := dodWidths[ones-1]
			delta += uint64(int64(w<<(ones+1)) >> (64 - width)) // sign-extended
			pos += ones + 1 + width
			w = window(b, pos)
		default:
			delta += window(b, pos+4)
			pos += 4 + 64
			w = window(b, pos)
		}
		ns += int64(delta)

		// w holds at least 63 bits from pos.
		if dec {
			if k == start && i == 0 {
				vbits = window(b, pos)
				pos += 64
			} else {
				u := w >> (64 - width) // 0 when width is
				vbits += uint64(int64(u>>1) ^ -int64(u&1))
				pos += width
			}
			buf[k] = sample{ns, float64(int64(vbits)) / scale}
			continue
		}
		switch w >> 62 {
		case 0b10:
			x := w << 2
			if sig > 61 {
				x = window(b, pos+2)
			}
			vbits ^= x >> (64 - sig) << (64 - lead - sig)
			pos += 2 + sig
		case 0b11:
			h := w >> 51 & (1<<11 - 1)
			lead, sig = uint(h>>6), uint(h&63)
			if sig == 0 {
				sig = 64
			}
			vbits ^= window(b, pos+13) >> (64 - sig) << (64 - lead - sig)
			pos += 13 + sig
		default:
			pos++
		}
		buf[k] = sample{ns, math.Float64frombits(vbits)}
	}
	i += len(buf) - start
	*c = cursor{ns: ns, delta: delta, bits: vbits, pos: uint32(pos), i: i, lead: uint8(lead), sig: uint8(sig)}
	return buf
}

// window returns the 64 bits of b from bit pos on, zero past its end.
func window(b []byte, pos uint) uint64 {
	i, off := pos>>3, pos&7
	if i+9 > uint(len(b)) {
		pad := padded(b[min(i, uint(len(b))):])
		b, i = pad[:], 0
	}
	return binary.BigEndian.Uint64(b[i:])<<off | uint64(b[i+8])>>(8-off)
}

// padded is the start of b, zero past its end.
func padded(b []byte) (pad [9]byte) {
	copy(pad[:], b)
	return pad
}
