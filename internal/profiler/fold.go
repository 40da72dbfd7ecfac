package profiler

import (
	"sort"
)

// FuncStat is the folded per-function view of a profile window:
// Flat is the value attributed to samples whose leaf frame is the
// function; Cum additionally counts samples where it appears anywhere
// on the stack (deduplicated per sample, so recursion does not double
// count).
type FuncStat struct {
	Function string `json:"function"`
	Flat     int64  `json:"flat"`
	Cum      int64  `json:"cum"`
}

// StackStat is one merged flame stack: semicolon-joined frames,
// root first (the folded-stacks format flame graph tooling expects),
// with the summed sample value. A ';' inside a frame's name — a
// generic shape such as struct { a bool; b string } holds them — is
// written as ':', as stackcollapse-perf does, so that splitting the
// stack on ';' yields its frames.
type StackStat struct {
	Stack string `json:"stack"`
	Value int64  `json:"value"`
}

// Table folds decoded profiles into per-function totals and merged
// flame stacks. Folding into a warm table (all functions and stacks
// already seen) performs zero allocations per profile sample, which
// is what keeps the always-on profiler inside its overhead budget.
// Table is not safe for concurrent use; the Profiler serializes
// access.
type Table struct {
	Total   int64  // sum of folded sample values
	Samples int64  // number of samples folded (after guards)
	Unit    string // unit of the folded value slot, e.g. "nanoseconds"

	funcs  map[string]*funcEntry
	stacks map[uint64]*stackEntry

	gen    uint64   // per-sample generation for cum deduplication
	frames []string // scratch: resolved frames of the current sample, leaf first
}

type funcEntry struct {
	stat FuncStat
	gen  uint64
}

type stackEntry struct {
	stack string
	value int64
}

// NewTable returns an empty fold table.
func NewTable() *Table {
	return &Table{
		funcs:  make(map[string]*funcEntry),
		stacks: make(map[uint64]*stackEntry),
	}
}

// Fold accumulates every sample of p into the table, using the
// profile's default value slot (Profile.ValueIndex). Samples with a
// non-positive value, an out-of-range value vector, or no resolvable
// frames are skipped — heap profiles routinely carry zero-value
// rows, and fuzzed input may reference unknown locations.
func (t *Table) Fold(p *Profile) {
	idx := p.ValueIndex()
	if idx < 0 {
		return
	}
	if t.Unit == "" && idx < len(p.SampleTypes) {
		t.Unit = p.SampleTypes[idx].Unit
	}
	for si := range p.Samples {
		s := &p.Samples[si]
		if idx >= len(s.Values) {
			continue
		}
		v := s.Values[idx]
		if v <= 0 {
			continue
		}
		t.frames = t.frames[:0]
		for _, locID := range s.LocationIDs {
			loc := p.Locations[locID]
			if loc == nil {
				continue
			}
			for _, fid := range loc.FunctionIDs {
				if fn := p.Functions[fid]; fn != nil && fn.Name != "" {
					t.frames = append(t.frames, fn.Name)
				}
			}
		}
		t.foldFrames(v)
	}
}

// foldFrames accounts one sample of value v whose resolved frames,
// leaf first, are in t.frames. It is the fold body that both entry
// points share: Fold for decoded pprof profiles and foldStack for the
// runtime's own records. A sample without frames is skipped.
func (t *Table) foldFrames(v int64) {
	if len(t.frames) == 0 {
		return
	}
	t.Total += v
	t.Samples++

	// Flat goes to the leaf; cum to every distinct function on the
	// stack. The generation counter replaces a per-sample seen-set
	// so the steady-state fold allocates nothing.
	t.gen++
	t.entry(t.frames[0]).stat.Flat += v
	for _, name := range t.frames {
		e := t.entry(name)
		if e.gen != t.gen {
			e.gen = t.gen
			e.stat.Cum += v
		}
	}

	// Merge the stack (root first) into the flame map, keyed by an
	// FNV-1a hash of the joined stack's bytes; the joined string is
	// built only the first time a stack is seen.
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := len(t.frames) - 1; i >= 0; i-- {
		for j := 0; j < len(t.frames[i]); j++ {
			h ^= uint64(flameByte(t.frames[i][j]))
			h *= 1099511628211
		}
		h ^= uint64(';')
		h *= 1099511628211
	}
	se := t.stacks[h]
	if se == nil {
		n := 0
		for i := range t.frames {
			n += len(t.frames[i]) + 1
		}
		b := make([]byte, 0, n)
		for i := len(t.frames) - 1; i >= 0; i-- {
			if len(b) > 0 {
				b = append(b, ';')
			}
			for j := 0; j < len(t.frames[i]); j++ {
				b = append(b, flameByte(t.frames[i][j]))
			}
		}
		se = &stackEntry{stack: string(b)}
		t.stacks[h] = se
	}
	se.value += v
}

// flameByte is c as a flame stack writes it inside a frame: the frame
// separator ';' becomes ':'.
func flameByte(c byte) byte {
	if c == ';' {
		return ':'
	}
	return c
}

// reset empties the table for a new snapshot. It keeps the entries,
// zeroed and left out of Funcs, Stacks and Merge until a sample names
// them again, so refolding a snapshot of the same functions and stacks
// allocates nothing.
func (t *Table) reset() {
	t.Total, t.Samples = 0, 0
	for _, e := range t.funcs {
		e.stat.Flat, e.stat.Cum = 0, 0
	}
	for _, se := range t.stacks {
		se.value = 0
	}
}

func (t *Table) entry(name string) *funcEntry {
	e := t.funcs[name]
	if e == nil {
		e = &funcEntry{stat: FuncStat{Function: name}}
		t.funcs[name] = e
	}
	return e
}

// Merge adds every function and stack of src into t. Used to combine
// the epoch windows a query or baseline snapshot spans.
func (t *Table) Merge(src *Table) {
	if src == nil {
		return
	}
	if t.Unit == "" {
		t.Unit = src.Unit
	}
	t.Total += src.Total
	t.Samples += src.Samples
	for name, e := range src.funcs {
		if e.stat.Cum == 0 {
			continue // left by reset
		}
		d := t.entry(name)
		d.stat.Flat += e.stat.Flat
		d.stat.Cum += e.stat.Cum
	}
	for h, se := range src.stacks {
		if se.value == 0 {
			continue
		}
		d := t.stacks[h]
		if d == nil {
			d = &stackEntry{stack: se.stack}
			t.stacks[h] = d
		}
		d.value += se.value
	}
}

// Funcs returns the table's functions sorted by flat value
// descending (ties broken by name), truncated to n when n > 0.
func (t *Table) Funcs(n int) []FuncStat {
	out := make([]FuncStat, 0, len(t.funcs))
	for _, e := range t.funcs {
		if e.stat.Cum > 0 { // zero only in an entry reset left
			out = append(out, e.stat)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flat != out[j].Flat {
			return out[i].Flat > out[j].Flat
		}
		return out[i].Function < out[j].Function
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Stacks returns the merged flame stacks sorted by value descending
// (ties broken by stack string), truncated to n when n > 0.
func (t *Table) Stacks(n int) []StackStat {
	out := make([]StackStat, 0, len(t.stacks))
	for _, se := range t.stacks {
		if se.value > 0 {
			out = append(out, StackStat{Stack: se.stack, Value: se.value})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Stack < out[j].Stack
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
