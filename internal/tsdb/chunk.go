package tsdb

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
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
const chunkLen = 120

// dodWidths are the payload widths of the instant encoding's bounded
// classes, in the order of their prefixes.
var dodWidths = [...]uint{14, 24, 36}

// chunk is one run of encoded samples.
type chunk struct {
	b    []byte // the bitstream; a sealed chunk's is cut to its length
	last int64  // the newest sample's instant
	n    int    // samples encoded
}

// cursor is the codec's state between two samples of a chunk: the
// sample just written or read, and where the next one starts. The zero
// cursor stands before a chunk's first sample.
type cursor struct {
	ns    int64  // instant of the current sample, Unix ns
	delta uint64 // ns minus the previous sample's, wrapped
	bits  uint64 // float64 bits of the current value
	pos   uint32 // bit offset of the next sample
	i     int    // samples up to and including the current one
	lead  uint8  // leading zeros of the value window
	sig   uint8  // width of the value window, 0 before the first
}

// value is the current sample's value.
func (c *cursor) value() float64 { return math.Float64frombits(c.bits) }

// put encodes samples, in instant order and newer than c's, at the end
// of b, which c has written so far, and returns the extended stream.
func (c *cursor) put(b []byte, ss []sample) []byte {
	w := bitWriter{b: b}
	if off := uint(c.pos & 7); off != 0 { // the last byte is partial
		w.b, w.acc, w.n = b[:len(b)-1], uint64(b[len(b)-1]>>(8-off)), off
	}
	for _, s := range ss {
		delta := uint64(s.ns - c.ns)
		dod := int64(delta - c.delta)
		c.ns, c.delta = s.ns, delta
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

// decode appends to buf the samples of stream b after c's, until buf
// is full or the stream's n samples are read, and moves c past them.
func (c *cursor) decode(b []byte, n int, buf []sample) []sample {
	// The state lives in locals for the loop, which is every read's.
	ns, delta, vbits, pos, i, lead, sig := c.ns, c.delta, c.bits, uint(c.pos), c.i, uint(c.lead), uint(c.sig)
	start := len(buf)
	buf = buf[:start+min(n-i, cap(buf)-start)]
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

// next decodes the one sample after c's.
func (c *cursor) next(b []byte) {
	var one [1]sample
	c.decode(b, c.i+1, one[:0])
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

// seal cuts a full chunk's stream to its length.
func (ch *chunk) seal() { ch.b = slices.Clone(ch.b) }
