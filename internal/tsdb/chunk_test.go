package tsdb

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// chunkInput packs samples as the fuzzer feeds them: 16 bytes each,
// Unix ns then float64 bits, little-endian.
func chunkInput(ss ...sample) []byte {
	var b []byte
	for _, s := range ss {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.ns))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.v))
	}
	return b
}

// wholeChunk is a chunk's worth of samples 5 s apart, valued v(i).
func wholeChunk(v func(i int) float64) []sample {
	ss := make([]sample, chunkLen)
	for i := range ss {
		ss[i] = sample{int64(i) * 5e9, v(i)}
	}
	return ss
}

// decimalEdges are whole chunks at the edges of the decimal encoding,
// each with the exponent it seals at, or −1 for Gorilla.
var decimalEdges = []struct {
	name string
	v    func(i int) float64
	exp  int
}{
	{"−0 among decimals", func(i int) float64 {
		if i == 60 {
			return math.Copysign(0, -1)
		}
		return float64(i) / 4
	}, -1},
	{"integers just below 2^53", func(i int) float64 { return 1<<53 - 1 - float64(i) }, 0},
	{"an integer at 2^53", func(i int) float64 { return 1<<53 - float64(chunkLen-1-i) }, -1},
	{"v·10^3 just below 2^53", func(i int) float64 { return float64(1<<53-1-i) / 1e3 }, 3},
	{"v·10^3 just past 2^53", func(i int) float64 { return float64(1<<53+2*i) / 1e3 }, -1},
	{"nine decimals", func(i int) float64 { return float64(123456789+i) / 1e9 }, 9},
	{"0.1+0.2 among tenths", func(i int) float64 {
		if tenth := 0.1; i == 7 {
			return tenth + 0.2 // in float64, not as an exact constant
		}
		return float64(i) / 10
	}, -1},
	{"the 120th is no decimal", func(i int) float64 {
		if i == chunkLen-1 {
			return math.Pi
		}
		return float64(i) / 100
	}, -1},
	{"the 120th raises the exponent", func(i int) float64 {
		if i == chunkLen-1 {
			return 1.2345
		}
		return float64(i) / 100
	}, 4},
	{"all equal", func(int) float64 { return 42.5 }, 1},
	// Exact at e = 0, but 2^40 apart, where the XOR spans 4 bits.
	{"2^40 and 2^41 in turn", func(i int) float64 { return float64(int64(1) << (40 + i%2)) }, -1},
}

// TestDecimalChunkEdges: each edge chunk seals in the encoding its
// values call for. FuzzChunkRoundTrip's seeds hold them to round trips,
// appended one at a time or pushed whole.
func TestDecimalChunkEdges(t *testing.T) {
	for _, c := range decimalEdges {
		var sd seriesData
		sd.push(wholeChunk(c.v)...)
		got := -1
		if ch := sd.chunks[0]; ch.dec {
			got = int(ch.exp)
		}
		if got != c.exp {
			t.Errorf("%s: sealed at exponent %d, want %d (−1: Gorilla)", c.name, got, c.exp)
		}
	}
}

// FuzzChunkRoundTrip: any sequence of samples in non-decreasing
// instant order, appended to a series, decodes to the same instants
// and value bits, across as many chunks as it fills.
func FuzzChunkRoundTrip(f *testing.F) {
	nan := math.Float64frombits(0x7ff8000000000abc) // a payload a canonical NaN would lose
	f.Add(chunkInput(sample{0, 0}))
	f.Add(chunkInput(sample{1, nan}, sample{2, math.Float64frombits(0xfff0000000000001)}, sample{3, math.NaN()}))
	f.Add(chunkInput(sample{5, math.Copysign(0, -1)}, sample{5, 0}, sample{5, math.Inf(1)}, sample{5, math.Inf(-1)}))
	f.Add(chunkInput(sample{math.MinInt64, 1}, sample{math.MaxInt64, 2}))
	f.Add(chunkInput(sample{math.MinInt64, 1}, sample{math.MinInt64, 1}, sample{0, 1}, sample{math.MaxInt64, -1}, sample{math.MaxInt64, 3}))
	var steady []sample
	for i := range 3*chunkLen + 7 {
		steady = append(steady, sample{int64(i) * 5e9, math.Round(float64(i*i)) / 1e3})
	}
	f.Add(chunkInput(steady...))
	for _, c := range decimalEdges {
		f.Add(chunkInput(wholeChunk(c.v)...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var want []sample
		for ; len(in) >= 16; in = in[16:] {
			want = append(want, sample{int64(binary.LittleEndian.Uint64(in)), math.Float64frombits(binary.LittleEndian.Uint64(in[8:]))})
		}
		slices.SortStableFunc(want, func(a, b sample) int { return cmp.Compare(a.ns, b.ns) })
		// Sample by sample, then all at once: the stream is the same.
		var sd, batch seriesData
		for _, s := range want {
			sd.push(s)
		}
		batch.push(want...)
		got := sd.appendSamples(nil)
		if len(got) != len(want) || sd.len() != len(want) {
			t.Fatalf("%d samples decode to %d (len %d)", len(want), len(got), sd.len())
		}
		for i, s := range want {
			if got[i].ns != s.ns || math.Float64bits(got[i].v) != math.Float64bits(s.v) {
				t.Fatalf("sample %d = (%d, %#x), want (%d, %#x)", i, got[i].ns, math.Float64bits(got[i].v), s.ns, math.Float64bits(s.v))
			}
		}
		// xorFloor is at most what put spends on a chunk's values: its
		// stream less the instants', which a stream of zeros costs less
		// a bit a value.
		for k := 0; k < len(want); k += chunkLen {
			ss := want[k:min(k+chunkLen, len(want))]
			zeros := slices.Clone(ss)
			for i := range zeros {
				zeros[i].v = 0
			}
			var c, z cursor
			c.put(nil, ss)
			z.put(nil, zeros)
			if floor, spent := xorFloor(ss), int(c.pos)-int(z.pos)+len(ss); floor > spent {
				t.Fatalf("samples %d on: xorFloor %d bits, put spends %d", k, floor, spent)
			}
		}
		for i, ch := range sd.chunks {
			if ch.n > chunkLen || (i < len(sd.chunks)-1 && ch.n != chunkLen) {
				t.Fatalf("chunk %d of %d holds %d samples", i, len(sd.chunks), ch.n)
			}
			if b := batch.chunks[i]; !bytes.Equal(ch.b, b.b) || ch.dec != b.dec || ch.exp != b.exp || ch.width != b.width {
				t.Fatalf("chunk %d encodes differently appended at once", i)
			}
		}
	})
}
