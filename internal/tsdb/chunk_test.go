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
		for i, ch := range sd.chunks {
			if ch.n > chunkLen || (i < len(sd.chunks)-1 && ch.n != chunkLen) {
				t.Fatalf("chunk %d of %d holds %d samples", i, len(sd.chunks), ch.n)
			}
			if !bytes.Equal(ch.b, batch.chunks[i].b) {
				t.Fatalf("chunk %d encodes differently appended at once", i)
			}
		}
	})
}
