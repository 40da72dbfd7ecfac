package profiler

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"caladrius/internal/profiler/pproftest"
)

// spin burns CPU until stop closes, in a function whose name shows up
// in CPU profiles.
func spin(stop <-chan struct{}) {
	x := 0
	for {
		select {
		case <-stop:
			runtime.KeepAlive(x)
			return
		default:
			for i := 0; i < 1000; i++ {
				x += i * i
			}
		}
	}
}

// TestParseRuntimeProfiles round-trips real runtime/pprof output for
// all four captured kinds through the reader: capture → Parse → fold,
// asserting structural invariants along the way.
func TestParseRuntimeProfiles(t *testing.T) {
	// Seed the mutex profiler so the mutex profile has content.
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				mu.Lock()
				time.Sleep(10 * time.Microsecond)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// The raw pprof bytes: CPU as the profiler captures it, the
	// snapshot kinds as incident bundles write them.
	src := func(kind Kind) ([]byte, error) {
		var buf bytes.Buffer
		if kind == KindCPU {
			err := CaptureCPUProfile(&buf, CPUWindow)
			return buf.Bytes(), err
		}
		err := CaptureProfile(&buf, string(kind))
		return buf.Bytes(), err
	}
	for _, kind := range Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			var stop chan struct{}
			var wg sync.WaitGroup
			if kind == KindCPU {
				// Give the CPU profiler something to sample.
				stop = make(chan struct{})
				wg.Add(1)
				go func() { defer wg.Done(); spin(stop) }()
			}
			data, err := src(kind)
			if stop != nil {
				close(stop)
				wg.Wait()
			}
			if err != nil {
				t.Fatalf("capture %s: %v", kind, err)
			}
			if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
				t.Fatalf("capture %s: runtime/pprof output should be gzipped", kind)
			}
			p, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse(%s): %v", kind, err)
			}
			if len(p.SampleTypes) == 0 {
				t.Fatalf("%s: no sample types", kind)
			}
			idx := p.ValueIndex()
			if idx < 0 || idx >= len(p.SampleTypes) {
				t.Fatalf("%s: ValueIndex %d out of range of %d types", kind, idx, len(p.SampleTypes))
			}
			// Every referenced location and function must resolve, and
			// value vectors must match the declared types.
			for _, s := range p.Samples {
				if len(s.Values) != len(p.SampleTypes) {
					t.Fatalf("%s: sample has %d values, profile declares %d types", kind, len(s.Values), len(p.SampleTypes))
				}
				for _, lid := range s.LocationIDs {
					loc := p.Locations[lid]
					if loc == nil {
						t.Fatalf("%s: sample references unknown location %d", kind, lid)
					}
					for _, fid := range loc.FunctionIDs {
						if p.Functions[fid] == nil {
							t.Fatalf("%s: location %d references unknown function %d", kind, lid, fid)
						}
					}
				}
			}
			tbl := NewTable()
			tbl.Fold(p)
			switch kind {
			case KindCPU:
				if tbl.Total <= 0 {
					t.Fatalf("cpu: folded total %d, want > 0 (spin should have been sampled)", tbl.Total)
				}
				found := false
				for _, fs := range tbl.Funcs(0) {
					if strings.Contains(fs.Function, "profiler.spin") {
						found = true
						if fs.Cum < fs.Flat {
							t.Fatalf("cpu: spin cum %d < flat %d", fs.Cum, fs.Flat)
						}
					}
				}
				if !found {
					t.Fatalf("cpu: profiler.spin not in folded table: %+v", tbl.Funcs(10))
				}
			case KindGoroutine:
				if tbl.Total < 1 {
					t.Fatalf("goroutine: folded total %d, want >= 1", tbl.Total)
				}
			case KindHeap:
				if len(p.Samples) == 0 {
					t.Fatalf("heap: no samples at all")
				}
				if got := p.SampleTypes[idx].Type; got != "inuse_space" {
					t.Fatalf("heap: folding %q, want inuse_space", got)
				}
			case KindMutex:
				if len(p.Samples) == 0 {
					t.Fatalf("mutex: no contention samples despite seeded contention")
				}
			}
		})
	}
}

func TestParseSynthetic(t *testing.T) {
	stacks := map[string]int64{
		"main;worker;hot":  700,
		"main;worker;cold": 200,
		"main;idle":        100,
	}
	for _, gz := range []bool{false, true} {
		data := cpuProfileBytes(t, gz, stacks)
		p, err := Parse(data)
		if err != nil {
			t.Fatalf("Parse(gz=%v): %v", gz, err)
		}
		tbl := NewTable()
		tbl.Fold(p)
		if tbl.Total != 1000 {
			t.Fatalf("gz=%v: total %d, want 1000", gz, tbl.Total)
		}
		if tbl.Samples != 3 {
			t.Fatalf("gz=%v: samples %d, want 3", gz, tbl.Samples)
		}
		funcs := map[string]FuncStat{}
		for _, fs := range tbl.Funcs(0) {
			funcs[fs.Function] = fs
		}
		if got := funcs["hot"]; got.Flat != 700 || got.Cum != 700 {
			t.Fatalf("hot: %+v", got)
		}
		if got := funcs["worker"]; got.Flat != 0 || got.Cum != 900 {
			t.Fatalf("worker: %+v", got)
		}
		if got := funcs["main"]; got.Flat != 0 || got.Cum != 1000 {
			t.Fatalf("main: %+v", got)
		}
		top := tbl.Funcs(1)
		if len(top) != 1 || top[0].Function != "hot" {
			t.Fatalf("top-1: %+v", top)
		}
		st := tbl.Stacks(0)
		if len(st) != 3 {
			t.Fatalf("stacks: %+v", st)
		}
		if st[0].Stack != "main;worker;hot" || st[0].Value != 700 {
			t.Fatalf("top stack: %+v", st[0])
		}
	}
}

// TestFoldRecursion checks cum deduplication: a recursive frame must
// count its sample value once, not per occurrence.
func TestFoldRecursion(t *testing.T) {
	ep := encProfile{
		sampleTypes: [][2]string{{"cpu", "nanoseconds"}},
		stacks:      []encStack{{frames: []string{"rec", "rec", "rec", "main"}, value: 50}},
	}
	p, err := Parse(ep.encode(t))
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable()
	tbl.Fold(p)
	for _, fs := range tbl.Funcs(0) {
		if fs.Function == "rec" && (fs.Cum != 50 || fs.Flat != 50) {
			t.Fatalf("rec: %+v, want flat=50 cum=50", fs)
		}
		if fs.Function == "main" && (fs.Cum != 50 || fs.Flat != 0) {
			t.Fatalf("main: %+v, want flat=0 cum=50", fs)
		}
	}
}

// TestFlameEscapesFrameSeparator: a function name holding ';' — here a
// generic shape the runtime names — stays one frame of its flame
// stack, written with ':', and keeps its own name in the function
// table.
func TestFlameEscapesFrameSeparator(t *testing.T) {
	const shape = "internal/sync.(*HashTrieMap[go.shape.struct { net/netip.isV6 bool; net/netip.zoneV6 string },go.shape.*uint8]).All"
	p, err := Parse(pproftest.CPUProfileOf([]pproftest.Sample{
		{Frames: []string{"main.main", shape}, Value: 30},
		{Frames: []string{"main.main", strings.ReplaceAll(shape, ";", ":")}, Value: 12},
	}))
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable()
	tbl.Fold(p)
	stacks := tbl.Stacks(0)
	if len(stacks) != 1 {
		t.Fatalf("stacks = %+v, want the two samples merged into the one stack they render as", stacks)
	}
	frames := strings.Split(stacks[0].Stack, ";")
	if want := strings.ReplaceAll(shape, ";", ":"); len(frames) != 2 || frames[0] != "main.main" || frames[1] != want || stacks[0].Value != 42 {
		t.Fatalf("stack = %+v, want main.main;%s = 42", stacks[0], want)
	}
	if funcs := tbl.Funcs(1); len(funcs) != 1 || funcs[0].Function != shape || funcs[0].Flat != 30 {
		t.Fatalf("top function = %+v, want %s flat 30 under its own name", funcs, shape)
	}
}

func TestParseDefaultSampleType(t *testing.T) {
	ep := encProfile{
		sampleTypes: [][2]string{{"alloc_space", "bytes"}, {"inuse_space", "bytes"}},
		defaultType: "alloc_space",
		stacks:      []encStack{{frames: []string{"f"}, value: 9}},
	}
	p, err := Parse(ep.encode(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ValueIndex(); got != 0 {
		t.Fatalf("ValueIndex = %d, want 0 (default_sample_type=alloc_space)", got)
	}
	// Unknown default falls back to the last slot.
	p.DefaultSampleType = "bogus"
	if got := p.ValueIndex(); got != 1 {
		t.Fatalf("ValueIndex = %d, want 1 for unknown default", got)
	}
}

func TestParseMalformed(t *testing.T) {
	good := cpuProfileBytes(t, false, map[string]int64{"a;b": 10})
	cases := map[string][]byte{
		"truncated varint":     {0x08, 0xff},
		"truncated field":      good[:len(good)-3],
		"bad gzip":             {0x1f, 0x8b, 0x00, 0x01, 0x02},
		"string index oob":     appendVarintField(nil, 14, 99),
		"huge nested length":   {0x12, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"unsupported wiretype": {0x0b},
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: Parse accepted malformed input", name)
		}
	}
	// Zero-sample profile with a valid empty string table parses fine.
	ep := encProfile{sampleTypes: [][2]string{{"cpu", "nanoseconds"}}}
	if _, err := Parse(ep.encode(t)); err != nil {
		t.Fatalf("zero-sample profile: %v", err)
	}
}

// TestParseUnpackedRepeated covers the unpacked encoding of
// repeated location_id/value fields, which proto2 writers emit.
func TestParseUnpackedRepeated(t *testing.T) {
	var out []byte
	// sample_type {type: idx1 "cpu", unit: idx2 "ns"}
	var vt []byte
	vt = appendVarintField(vt, 1, 1)
	vt = appendVarintField(vt, 2, 2)
	out = appendBytesField(out, 1, vt)
	// sample with unpacked location ids and values
	var s []byte
	s = appendVarintField(s, 1, 1) // location_id: 1
	s = appendVarintField(s, 1, 2) // location_id: 2
	s = appendVarintField(s, 2, 7) // value: 7
	out = appendBytesField(out, 2, s)
	// locations 1→fn1, 2→fn2
	for id := uint64(1); id <= 2; id++ {
		var loc []byte
		loc = appendVarintField(loc, 1, id)
		var line []byte
		line = appendVarintField(line, 1, id)
		loc = appendBytesField(loc, 4, line)
		out = appendBytesField(out, 4, loc)
		var fn []byte
		fn = appendVarintField(fn, 1, id)
		fn = appendVarintField(fn, 2, 2+id) // "leaf", "root"
		out = appendBytesField(out, 5, fn)
	}
	for _, str := range []string{"", "cpu", "ns", "leaf", "root"} {
		out = appendBytesField(out, 6, []byte(str))
	}
	p, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable()
	tbl.Fold(p)
	if tbl.Total != 7 {
		t.Fatalf("total %d, want 7", tbl.Total)
	}
	st := tbl.Stacks(0)
	if len(st) != 1 || st[0].Stack != "root;leaf" {
		t.Fatalf("stacks: %+v, want [root;leaf]", st)
	}
}

func TestParseRejectsOversizeDecompressed(t *testing.T) {
	var raw bytes.Buffer
	// A gzip stream expanding past the cap must be rejected.
	zw := gzip.NewWriter(&raw)
	chunk := make([]byte, 1<<20)
	for i := 0; i < 70; i++ {
		if _, err := zw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(raw.Bytes()); err == nil {
		t.Fatal("Parse accepted a 70MB decompressed profile")
	}
}
