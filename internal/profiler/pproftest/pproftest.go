// Package pproftest builds tiny synthetic pprof protobuf profiles for
// tests in other packages (api handlers, calctl rendering, the
// closed-loop e2e): deterministic function names and values without
// depending on what the runtime happens to sample. It encodes
// field-by-field, independent of the reader in internal/profiler, so
// the two cannot share a bug.
package pproftest

import (
	"encoding/binary"
	"sort"
	"strings"
)

func appendTag(b []byte, field, wire uint64) []byte {
	return binary.AppendUvarint(b, field<<3|wire)
}

func appendBytesField(b []byte, field uint64, payload []byte) []byte {
	b = appendTag(b, field, 2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func appendVarintField(b []byte, field, v uint64) []byte {
	b = appendTag(b, field, 0)
	return binary.AppendUvarint(b, v)
}

// CPUProfile renders a CPU-shaped pprof profile (sample types
// samples/count + cpu/nanoseconds) from "root;mid;leaf" stack strings
// mapped to nanosecond values. Output is the raw protobuf (ungzipped;
// the reader accepts both).
func CPUProfile(stacks map[string]int64) []byte {
	// Deterministic encoding order for stable test fixtures.
	keys := make([]string, 0, len(stacks))
	for k := range stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	samples := make([]Sample, len(keys))
	for i, k := range keys {
		samples[i] = Sample{Frames: strings.Split(k, ";"), Value: stacks[k]}
	}
	return CPUProfileOf(samples)
}

// Sample is one stack of a synthetic profile: its function names, root
// first, and its value in nanoseconds.
type Sample struct {
	Frames []string
	Value  int64
}

// CPUProfileOf renders samples as CPUProfile does, in their order. A
// function name may hold any byte, ';' included.
func CPUProfileOf(samples []Sample) []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := uint64(len(strs))
		strs = append(strs, s)
		strIdx[s] = i
		return i
	}
	funcID := map[string]uint64{}
	var funcNames []string
	for _, smp := range samples {
		for _, fr := range smp.Frames {
			if _, ok := funcID[fr]; !ok {
				funcID[fr] = uint64(len(funcNames) + 1)
				funcNames = append(funcNames, fr)
			}
		}
	}

	var out []byte
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt []byte
		vt = appendVarintField(vt, 1, intern(st[0]))
		vt = appendVarintField(vt, 2, intern(st[1]))
		out = appendBytesField(out, 1, vt)
	}
	for _, smp := range samples {
		// Leaf first, matching the wire format.
		var locs []byte
		for i := len(smp.Frames) - 1; i >= 0; i-- {
			locs = binary.AppendUvarint(locs, funcID[smp.Frames[i]])
		}
		var s []byte
		s = appendBytesField(s, 1, locs)
		var vals []byte
		vals = binary.AppendUvarint(vals, 1) // samples count
		vals = binary.AppendUvarint(vals, uint64(smp.Value))
		s = appendBytesField(s, 2, vals)
		out = appendBytesField(out, 2, s)
	}
	for _, name := range funcNames {
		id := funcID[name]
		var line []byte
		line = appendVarintField(line, 1, id)
		var loc []byte
		loc = appendVarintField(loc, 1, id)
		loc = appendBytesField(loc, 4, line)
		out = appendBytesField(out, 4, loc)
		var fn []byte
		fn = appendVarintField(fn, 1, id)
		fn = appendVarintField(fn, 2, intern(name))
		out = appendBytesField(out, 5, fn)
	}
	for _, s := range strs {
		out = appendBytesField(out, 6, []byte(s))
	}
	return out
}
