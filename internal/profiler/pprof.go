// Package profiler implements Caladrius' always-on continuous
// profiler: it periodically captures CPU/heap/goroutine/mutex
// profiles from the running process — CPU via runtime/pprof, decoded
// with a minimal stdlib-only pprof protobuf reader (a sibling of
// internal/yamlite in spirit: just enough of the format, no external
// dependencies), the snapshot kinds from the runtime's own profile
// records — and folds the samples into per-function flat/cum tables
// and merged flame stacks held in a bounded ring of epoch windows. A persisted baseline snapshot lets the profiler rank the
// top regressing functions by flat-share delta, which feeds the
// profile-hot-function-regression SLO and the incident recorder.
package profiler

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Decode limits. pprof files from runtime/pprof are tiny (kilobytes);
// the caps below only exist so hostile or corrupt input cannot make
// the reader allocate without bound.
const (
	maxDecompressed = 64 << 20 // decompressed profile bytes
	maxStrings      = 1 << 20  // string-table entries
	maxMessages     = 1 << 20  // samples/locations/functions per profile
)

// ValueType describes the meaning of one slot of a sample's value
// vector, e.g. {Type: "cpu", Unit: "nanoseconds"}.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Sample is one stack trace with its measured values. LocationIDs are
// ordered leaf first, matching the wire format.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

// Location is a resolved program address. FunctionIDs lists the
// functions at this address, innermost (leaf) inline frame first.
type Location struct {
	ID          uint64
	FunctionIDs []uint64
}

// Function is a named function from the profile's function table.
type Function struct {
	ID   uint64
	Name string
	File string
}

// Profile is a decoded pprof profile: the subset of
// profile.proto Caladrius needs to fold samples into tables.
type Profile struct {
	SampleTypes       []ValueType
	Samples           []Sample
	Locations         map[uint64]*Location
	Functions         map[uint64]*Function
	PeriodType        ValueType
	Period            int64
	TimeNanos         int64
	DurationNanos     int64
	DefaultSampleType string
}

// ValueIndex returns the index into each sample's value vector that
// folding should use: the profile's default_sample_type when it names
// a present type, else the last slot (the runtime/pprof convention —
// cpu nanoseconds, inuse_space, goroutine count, mutex delay all sit
// last).
func (p *Profile) ValueIndex() int {
	if p.DefaultSampleType != "" {
		for i, st := range p.SampleTypes {
			if st.Type == p.DefaultSampleType {
				return i
			}
		}
	}
	return len(p.SampleTypes) - 1
}

// errTruncated is returned whenever the input ends mid-varint or
// mid-field; fuzzing leans on this being an error, never a panic.
var errTruncated = errors.New("profiler: truncated profile")

// Parse decodes a pprof profile from data, transparently gunzipping
// (runtime/pprof always writes gzip). It validates string-table
// references and field sizes; malformed input yields an error, never
// a panic.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profiler: gunzip: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, maxDecompressed+1))
		if err != nil {
			return nil, fmt.Errorf("profiler: gunzip: %w", err)
		}
		if len(raw) > maxDecompressed {
			return nil, fmt.Errorf("profiler: profile exceeds %d bytes decompressed", maxDecompressed)
		}
		data = raw
	}
	return parseProfile(data)
}

// field is one raw protobuf field: number, wire type, and either the
// varint value (wire 0/1/5) or the byte payload (wire 2).
type fieldIter struct {
	buf []byte
	pos int
}

// next scans one field. Returns ok=false at clean end of buffer.
func (it *fieldIter) next() (num uint64, val uint64, payload []byte, err error) {
	tag, n := binary.Uvarint(it.buf[it.pos:])
	if n <= 0 {
		return 0, 0, nil, errTruncated
	}
	it.pos += n
	num = tag >> 3
	switch tag & 7 {
	case 0: // varint
		v, n := binary.Uvarint(it.buf[it.pos:])
		if n <= 0 {
			return 0, 0, nil, errTruncated
		}
		it.pos += n
		return num, v, nil, nil
	case 1: // fixed64
		if it.pos+8 > len(it.buf) {
			return 0, 0, nil, errTruncated
		}
		v := binary.LittleEndian.Uint64(it.buf[it.pos:])
		it.pos += 8
		return num, v, nil, nil
	case 2: // length-delimited
		ln, n := binary.Uvarint(it.buf[it.pos:])
		if n <= 0 {
			return 0, 0, nil, errTruncated
		}
		it.pos += n
		if ln > uint64(len(it.buf)-it.pos) {
			return 0, 0, nil, errTruncated
		}
		p := it.buf[it.pos : it.pos+int(ln)]
		it.pos += int(ln)
		return num, 0, p, nil
	case 5: // fixed32
		if it.pos+4 > len(it.buf) {
			return 0, 0, nil, errTruncated
		}
		v := uint64(binary.LittleEndian.Uint32(it.buf[it.pos:]))
		it.pos += 4
		return num, v, nil, nil
	default:
		return 0, 0, nil, fmt.Errorf("profiler: unsupported wire type %d", tag&7)
	}
}

func (it *fieldIter) done() bool { return it.pos >= len(it.buf) }

// packedUints appends the values of a repeated uint64 field that may
// arrive packed (one wire-2 payload of varints) or unpacked.
func packedUints(dst []uint64, val uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, val), nil
	}
	for pos := 0; pos < len(payload); {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return nil, errTruncated
		}
		pos += n
		if len(dst) >= maxMessages {
			return nil, fmt.Errorf("profiler: repeated field exceeds %d entries", maxMessages)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// packedInts is packedUints for repeated int64 (two's-complement, not
// zigzag: profile.proto declares plain int64).
func packedInts(dst []int64, val uint64, payload []byte) ([]int64, error) {
	if payload == nil {
		return append(dst, int64(val)), nil
	}
	for pos := 0; pos < len(payload); {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return nil, errTruncated
		}
		pos += n
		if len(dst) >= maxMessages {
			return nil, fmt.Errorf("profiler: repeated field exceeds %d entries", maxMessages)
		}
		dst = append(dst, int64(v))
	}
	return dst, nil
}

// parseProfile decodes the top-level Profile message. String indices
// may be referenced before the string table is complete, so raw
// submessages are collected first and resolved in a second pass once
// the table is known.
func parseProfile(data []byte) (*Profile, error) {
	var (
		strTab      = []string{}
		sampleRaw   [][]byte
		locRaw      [][]byte
		funcRaw     [][]byte
		typeRaw     [][]byte
		periodRaw   []byte
		defaultsIdx uint64
	)
	p := &Profile{
		Locations: make(map[uint64]*Location),
		Functions: make(map[uint64]*Function),
	}
	it := &fieldIter{buf: data}
	for !it.done() {
		num, val, payload, err := it.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			typeRaw = append(typeRaw, payload)
		case 2: // sample
			if len(sampleRaw) >= maxMessages {
				return nil, fmt.Errorf("profiler: more than %d samples", maxMessages)
			}
			sampleRaw = append(sampleRaw, payload)
		case 4: // location
			if len(locRaw) >= maxMessages {
				return nil, fmt.Errorf("profiler: more than %d locations", maxMessages)
			}
			locRaw = append(locRaw, payload)
		case 5: // function
			if len(funcRaw) >= maxMessages {
				return nil, fmt.Errorf("profiler: more than %d functions", maxMessages)
			}
			funcRaw = append(funcRaw, payload)
		case 6: // string_table
			if len(strTab) >= maxStrings {
				return nil, fmt.Errorf("profiler: string table exceeds %d entries", maxStrings)
			}
			strTab = append(strTab, string(payload))
		case 9:
			p.TimeNanos = int64(val)
		case 10:
			p.DurationNanos = int64(val)
		case 11: // period_type
			periodRaw = payload
		case 12:
			p.Period = int64(val)
		case 14:
			defaultsIdx = val
		}
	}
	str := func(idx uint64) (string, error) {
		if idx == 0 { // spec: index 0 is always the empty string
			return "", nil
		}
		if idx >= uint64(len(strTab)) {
			return "", fmt.Errorf("profiler: string index %d out of range (table has %d)", idx, len(strTab))
		}
		return strTab[idx], nil
	}
	parseValueType := func(raw []byte) (ValueType, error) {
		var vt ValueType
		it := &fieldIter{buf: raw}
		for !it.done() {
			num, val, _, err := it.next()
			if err != nil {
				return vt, err
			}
			switch num {
			case 1:
				if vt.Type, err = str(val); err != nil {
					return vt, err
				}
			case 2:
				if vt.Unit, err = str(val); err != nil {
					return vt, err
				}
			}
		}
		return vt, nil
	}
	for _, raw := range typeRaw {
		vt, err := parseValueType(raw)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, vt)
	}
	if periodRaw != nil {
		vt, err := parseValueType(periodRaw)
		if err != nil {
			return nil, err
		}
		p.PeriodType = vt
	}
	var err error
	if p.DefaultSampleType, err = str(defaultsIdx); err != nil {
		return nil, err
	}
	for _, raw := range sampleRaw {
		var s Sample
		it := &fieldIter{buf: raw}
		for !it.done() {
			num, val, payload, err := it.next()
			if err != nil {
				return nil, err
			}
			switch num {
			case 1:
				if s.LocationIDs, err = packedUints(s.LocationIDs, val, payload); err != nil {
					return nil, err
				}
			case 2:
				if s.Values, err = packedInts(s.Values, val, payload); err != nil {
					return nil, err
				}
			}
		}
		p.Samples = append(p.Samples, s)
	}
	for _, raw := range locRaw {
		loc := &Location{}
		it := &fieldIter{buf: raw}
		for !it.done() {
			num, val, payload, err := it.next()
			if err != nil {
				return nil, err
			}
			switch num {
			case 1:
				loc.ID = val
			case 4: // line (submessage; field 1 is function_id)
				li := &fieldIter{buf: payload}
				for !li.done() {
					lnum, lval, _, err := li.next()
					if err != nil {
						return nil, err
					}
					if lnum == 1 {
						loc.FunctionIDs = append(loc.FunctionIDs, lval)
					}
				}
			}
		}
		p.Locations[loc.ID] = loc
	}
	for _, raw := range funcRaw {
		fn := &Function{}
		it := &fieldIter{buf: raw}
		for !it.done() {
			num, val, _, err := it.next()
			if err != nil {
				return nil, err
			}
			switch num {
			case 1:
				fn.ID = val
			case 2:
				if fn.Name, err = str(val); err != nil {
					return nil, err
				}
			case 4:
				if fn.File, err = str(val); err != nil {
					return nil, err
				}
			}
		}
		p.Functions[fn.ID] = fn
	}
	for _, s := range p.Samples {
		if len(s.Values) > len(p.SampleTypes) {
			return nil, fmt.Errorf("profiler: sample has %d values but profile declares %d types",
				len(s.Values), len(p.SampleTypes))
		}
	}
	return p, nil
}
