package profiler

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzPprofParse throws arbitrary bytes at the pprof reader. The
// contract under fuzzing: Parse never panics, and any profile it
// accepts can be folded and queried without panicking. Crashers found
// by fuzzing are committed under testdata/fuzz/FuzzPprofParse as
// regression seeds, mirroring internal/yamlite.
func FuzzPprofParse(f *testing.F) {
	// Well-formed profile, raw and gzipped.
	good := encProfile{
		sampleTypes: [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}},
		period:      10_000_000,
		stacks: []encStack{
			{frames: []string{"leaf", "mid", "root"}, value: 41},
			{frames: []string{"other", "root"}, value: 1},
		},
	}
	f.Add(good.encode(f)) //nolint — *testing.F satisfies the same Helper/Fatalf surface
	gz := good
	gz.gzipped = true
	f.Add(gz.encode(f))
	// Zero-sample profile.
	empty := encProfile{sampleTypes: [][2]string{{"cpu", "nanoseconds"}}}
	f.Add(empty.encode(f))
	// Truncated varint mid-tag.
	f.Add([]byte{0x08, 0xff})
	// Oversized string-table reference on default_sample_type.
	f.Add(appendVarintField(nil, 14, 1<<30))
	// Length prefix pointing past the end of the buffer.
	f.Add([]byte{0x12, 0x7f, 0x01})
	// Packed repeated field that ends mid-varint.
	var s []byte
	s = appendBytesField(s, 1, []byte{0x80})
	f.Add(appendBytesField(nil, 2, s))
	// gzip header followed by garbage.
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00, 0xff, 0xff})
	// Valid gzip stream wrapping a truncated profile.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte{0x2a, 0x01})
	_ = zw.Close()
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("Parse returned nil profile with nil error")
		}
		// Accepted profiles must fold and query cleanly.
		tbl := NewTable()
		tbl.Fold(p)
		if tbl.Total < 0 {
			t.Fatalf("folded negative total %d from accepted profile", tbl.Total)
		}
		tbl.Funcs(5)
		tbl.Stacks(5)
		merged := NewTable()
		merged.Merge(tbl)
		if merged.Total != tbl.Total || merged.Samples != tbl.Samples {
			t.Fatalf("merge changed totals: %d/%d vs %d/%d", merged.Total, merged.Samples, tbl.Total, tbl.Samples)
		}
	})
}

// FuzzLoadBaseline throws arbitrary bytes at the baseline reader, the
// file -profile-baseline names. The contract under fuzzing:
// loadBaseline never panics, and a baseline it accepts diffs every
// function of every kind within [−1, 1] of its share.
func FuzzLoadBaseline(f *testing.F) {
	clock := newFakeClock()
	src := &syntheticSource{}
	path := filepath.Join(f.TempDir(), "baseline.json")
	p := newTestProfiler(f, clock, src.source, func(o *Options) { o.BaselinePath = path })
	fillWindow(f, p, src, map[string]int64{"main;steady": 900, "main;other": 100})
	clock.Advance(61 * time.Second)
	// Completing the first window saves the baseline; this one stays
	// the live profile the fuzzed baselines are diffed against.
	fillWindow(f, p, src, map[string]int64{"main;steady": 300, "main;hotNew": 700})
	saved, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	for _, c := range hostileBaselines {
		b := validBaseline()
		c.edit(b)
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := loadBaseline(path)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.baseline = b
		p.mu.Unlock()
		for _, kind := range Kinds {
			for _, e := range p.DiffKind(kind, len(b.Kinds[kind].Funcs)+2).Entries {
				if math.Abs(e.DeltaFlat) > 1 || math.Abs(e.DeltaCum) > 1 {
					t.Fatalf("%s %s: deltas flat %g, cum %g outside [-1, 1]", kind, e.Function, e.DeltaFlat, e.DeltaCum)
				}
			}
		}
	})
}
