package audit

import (
	"encoding/binary"
	"slices"
	"strings"
	"time"

	"caladrius/internal/core"
)

// entry is one slot of the ledger's ring: a Record packed so that a
// full ring retains as little as it can. Record stays the type the
// ledger takes and hands out — the API, calctl, the audit file and
// the benchmark module all compile against its pointer and map
// fields — but those fields would each keep a heap object alive per
// slot: the request's decoded parallelism map, a *core.RunCost, and
// the resolver's ResolvedAt, Observed and Errors. The entry holds
// their values inline instead, presence in flags, and the parallelism
// as a slice sorted once. Its strings and parallelism slices are
// interned (see interned), so a topology name sliced out of a request
// line does not keep that line alive, and the records of one
// configuration share one slice. Record and ReadSnapshot pack an entry; Get, List and
// WriteSnapshot unpack one, to a Record equal to the one packed, whose
// pointer fields point into arrays the caller passes (recordArrays).
type entry struct {
	id          int64
	createdAt   time.Time
	topology    string
	model       string
	traceID     string
	tenant      string
	sourceRate  float64
	parallelism []componentParallelism      // interned: never mutated
	calibration []core.ComponentCalibration // shared: never mutated
	cost        core.RunCost
	predicted   Predicted

	resolvedAt time.Time
	observed   observedValues
	// window holds the observation window when it is not the one the
	// resolver joins over, [createdAt−observeWindow, createdAt) — only
	// a record loaded from a file can carry another.
	window *[2]time.Time
	errs   Errors
	flags  entryFlags
}

// componentParallelism is one entry of a record's parallelism map.
type componentParallelism struct {
	component string
	n         int
}

// observedValues is an Observed without its window and its
// backpressure bool, which the entry holds elsewhere.
type observedValues struct {
	windows                     int
	sinkTPM, bpMsPerWindow, cpu float64
}

type entryFlags uint16

const (
	flagCounterfactual entryFlags = 1 << iota
	flagDegraded
	flagCachedCalibration
	flagResolved
	flagCost
	flagResolvedAt
	flagObserved
	flagBackpressure
	flagErrors
)

func (e *entry) has(f entryFlags) bool { return e.flags&f != 0 }

// set raises f when on is true.
func (e *entry) set(f entryFlags, on bool) {
	if on {
		e.flags |= f
	}
}

// pack fills e from rec, interning its names and parallelism into in.
// It keeps no pointer into rec but the shared calibration snapshot, and
// allocates only for a name or configuration seen for the first time.
func (e *entry) pack(rec *Record, in *interned) {
	*e = entry{
		id:          rec.ID,
		createdAt:   rec.CreatedAt,
		topology:    in.name(rec.Topology),
		model:       in.name(rec.Model),
		traceID:     rec.TraceID,
		tenant:      in.name(rec.Tenant),
		sourceRate:  rec.SourceRateTPM,
		parallelism: in.parallelism(rec.Parallelism),
		calibration: rec.Calibration,
		predicted:   rec.Predicted,
	}
	e.predicted.Bottleneck = in.name(rec.Predicted.Bottleneck)
	e.predicted.Risk = in.name(rec.Predicted.Risk)
	e.predicted.Sink = in.name(rec.Predicted.Sink)
	e.set(flagCounterfactual, rec.Counterfactual)
	e.set(flagDegraded, rec.Degraded)
	e.set(flagCachedCalibration, rec.CachedCalibration)
	e.set(flagResolved, rec.Resolved)
	if rec.Cost != nil {
		e.cost = *rec.Cost
		e.flags |= flagCost
	}
	if rec.ResolvedAt != nil {
		e.resolvedAt = *rec.ResolvedAt
		e.flags |= flagResolvedAt
	}
	if rec.Observed != nil {
		e.observe(*rec.Observed)
	}
	if rec.Errors != nil {
		e.grade(*rec.Errors, in)
	}
}

// observe stores the record's actuals.
func (e *entry) observe(o Observed) {
	e.observed = observedValues{windows: o.Windows, sinkTPM: o.SinkTPM, bpMsPerWindow: o.BackpressureMsPerWindow, cpu: o.TotalCPUCores}
	e.flags |= flagObserved
	e.set(flagBackpressure, o.Backpressure)
	// Compared with != rather than Equal: the unpacked window must be
	// the same value, location and monotonic reading included.
	if o.Start != e.createdAt.Add(-observeWindow) || o.End != e.createdAt {
		e.window = &[2]time.Time{o.Start, o.End}
	}
}

// grade stores the record's error metrics.
func (e *entry) grade(errs Errors, in *interned) {
	e.errs = errs
	e.errs.RiskOutcome = in.name(errs.RiskOutcome)
	e.flags |= flagErrors
}

// recordArrays hold what unpacked Records' pointer fields point to,
// one array per field, so that a page of records costs an allocation a
// field rather than one a record. Unpacking appends to them: arrays a
// pageSize made take its page without growing, and a zero recordArrays
// allocates what one record needs.
type recordArrays struct {
	costs    []core.RunCost
	times    []time.Time
	observed []Observed
	errs     []Errors
}

// pageSize counts what unpacking a page of entries takes: its records
// and the values of each recordArrays array.
type pageSize struct{ records, costs, times, observed, errs int }

func (p *pageSize) add(e *entry) {
	p.records++
	if e.has(flagCost) {
		p.costs++
	}
	if e.has(flagResolvedAt) {
		p.times++
	}
	if e.has(flagObserved) {
		p.observed++
	}
	if e.has(flagErrors) {
		p.errs++
	}
}

// arrays returns recordArrays with room for the page.
func (p *pageSize) arrays() recordArrays {
	return recordArrays{
		costs:    make([]core.RunCost, 0, p.costs),
		times:    make([]time.Time, 0, p.times),
		observed: make([]Observed, 0, p.observed),
		errs:     make([]Errors, 0, p.errs),
	}
}

// unpack rebuilds the Record e was packed from, its pointer fields
// into a's arrays.
func (e *entry) unpack(a *recordArrays) Record {
	rec := Record{
		ID:                e.id,
		Topology:          e.topology,
		Model:             e.model,
		TraceID:           e.traceID,
		CreatedAt:         e.createdAt,
		Tenant:            e.tenant,
		SourceRateTPM:     e.sourceRate,
		Counterfactual:    e.has(flagCounterfactual),
		Degraded:          e.has(flagDegraded),
		CachedCalibration: e.has(flagCachedCalibration),
		Calibration:       e.calibration,
		Predicted:         e.predicted,
		Resolved:          e.has(flagResolved),
	}
	if len(e.parallelism) > 0 {
		rec.Parallelism = make(map[string]int, len(e.parallelism))
		for _, p := range e.parallelism {
			rec.Parallelism[p.component] = p.n
		}
	}
	if e.has(flagCost) {
		a.costs = append(a.costs, e.cost)
		rec.Cost = &a.costs[len(a.costs)-1]
	}
	if e.has(flagResolvedAt) {
		a.times = append(a.times, e.resolvedAt)
		rec.ResolvedAt = &a.times[len(a.times)-1]
	}
	if e.has(flagObserved) {
		a.observed = append(a.observed, Observed{
			Start:                   e.createdAt.Add(-observeWindow),
			End:                     e.createdAt,
			Windows:                 e.observed.windows,
			SinkTPM:                 e.observed.sinkTPM,
			BackpressureMsPerWindow: e.observed.bpMsPerWindow,
			Backpressure:            e.has(flagBackpressure),
			TotalCPUCores:           e.observed.cpu,
		})
		o := &a.observed[len(a.observed)-1]
		if e.window != nil {
			o.Start, o.End = e.window[0], e.window[1]
		}
		rec.Observed = o
	}
	if e.has(flagErrors) {
		a.errs = append(a.errs, e.errs)
		rec.Errors = &a.errs[len(a.errs)-1]
	}
	return rec
}

// internCap bounds each table of interned: names (topologies, models,
// tenants, components, risk levels and outcomes) and parallelism
// configurations. One past it is copied into its entry instead of
// shared — still never sliced out of request memory.
const internCap = 512

// interned is what entries repeat, kept once per ledger. Guarded by
// the ledger's lock.
type interned struct {
	names        map[string]string
	parallelisms map[string][]componentParallelism // by their key (see parallelism)

	// scratch, reused by every parallelism call
	sorted []componentParallelism
	key    []byte
}

func newInterned() *interned {
	return &interned{names: map[string]string{}, parallelisms: map[string][]componentParallelism{}}
}

func (in *interned) name(s string) string {
	if c, ok := in.names[s]; ok {
		return c
	}
	c := strings.Clone(s)
	if len(in.names) < internCap {
		in.names[c] = c
	}
	return c
}

// parallelism returns par as a slice sorted by component, shared with
// every other record of the same configuration; nil when par is empty.
func (in *interned) parallelism(par map[string]int) []componentParallelism {
	if len(par) == 0 {
		return nil
	}
	s := in.sorted[:0]
	for c, n := range par {
		s = append(s, componentParallelism{c, n})
	}
	slices.SortFunc(s, func(a, b componentParallelism) int { return strings.Compare(a.component, b.component) })
	// The key length-prefixes each name, so no two configurations share
	// one whatever their names hold.
	k := in.key[:0]
	for _, p := range s {
		k = binary.AppendUvarint(k, uint64(len(p.component)))
		k = append(k, p.component...)
		k = binary.AppendVarint(k, int64(p.n))
	}
	out, ok := in.parallelisms[string(k)]
	if !ok {
		out = make([]componentParallelism, len(s))
		for i, p := range s {
			out[i] = componentParallelism{in.name(p.component), p.n}
		}
		if len(in.parallelisms) < internCap {
			in.parallelisms[string(k)] = out
		}
	}
	clear(s) // the scratch must not keep the caller's names alive
	in.sorted, in.key = s, k
	return out
}
