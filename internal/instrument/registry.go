// Package instrument is Caladrius' metrics registry: counters, gauges
// and fixed-bucket histograms, rendered in the Prometheus text format
// or as JSON. The paper positions Caladrius as an always-on modelling
// *service* (§III-A); a service must be able to answer "which endpoint
// is hot?", "how long do calibrations take?" and "how often does the
// simulator enter backpressure?" about itself. Instruments are
// registered once and then updated with lock-free atomics, so hot-path
// increments are allocation-free.
//
// The package is a leaf: it imports neither net/http nor log/slog, so
// the offline programs (cmd/figures, cmd/heronsim) can count simulator
// events without linking the HTTP stack. Serving the registry, scraping
// it into history and evaluating SLOs over it live in
// internal/telemetry.
package instrument

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimensions to an instrument. Label sets are fixed at
// registration: one (name, labels) pair is one time series.
type Labels map[string]string

// atomicFloat is a float64 updated with compare-and-swap on its bit
// pattern — the standard lock-free float accumulator.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(d float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value. Negative deltas are
// ignored to preserve monotonicity.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (ignored when negative).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d float64) { g.v.Add(d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds (inclusive, Prometheus "le" semantics); a final +Inf bucket is
// implicit. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds   []float64 // sorted, exclusive of +Inf
	counts   []atomic.Uint64
	sum      atomicFloat
	count    atomic.Uint64
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar links one observation to the trace that produced it, so a
// latency histogram can answer "show me a request that was this slow".
type Exemplar struct {
	Value float64 `json:"value"`
	Trace string  `json:"trace"`
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveExemplar records one value and, when trace is non-empty,
// remembers it as the histogram's latest exemplar. The exemplar swap
// is a single atomic pointer store; its allocation is the only cost
// over Observe.
func (h *Histogram) ObserveExemplar(v float64, trace string) {
	h.Observe(v)
	if trace != "" {
		h.exemplar.Store(&Exemplar{Value: v, Trace: trace})
	}
}

// Exemplar returns the latest exemplar, or nil when none was recorded.
func (h *Histogram) Exemplar() *Exemplar { return h.exemplar.Load() }

// Merge folds src's observations into h: per-bucket counts, sum and
// count. Both histograms must share a bucket layout (they do when
// registered under one name); mismatched layouts are ignored. Used by
// the usage accountant to roll an evicted principal's latency history
// into the sticky "other" bucket. src should be quiescent — a series
// being observed concurrently merges a near-consistent snapshot, which
// is the usual histogram-scrape guarantee.
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || len(src.counts) != len(h.counts) {
		return
	}
	for i := range src.counts {
		if n := src.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(src.sum.Load())
	h.count.Add(src.count.Load())
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Bounds returns the histogram's finite upper bounds in ascending
// order; the +Inf bucket is implicit. The slice is shared with every
// series of the name and must not be modified.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns the cumulative per-bucket counts, one per bound
// plus the +Inf bucket.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		out[i] = acc
	}
	return out
}

// DefLatencyBuckets covers request latencies from 1 ms to 10 s.
var DefLatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every series sharing a metric name.
type family struct {
	name    string
	kind    kind
	help    string
	buckets []float64          // histograms only
	series  map[string]*series // by label signature
}

type series struct {
	labels Labels
	inst   any // *Counter | *Gauge | *Histogram
}

// Registry holds instruments and renders them in Prometheus text
// format or JSON. Registration is idempotent: asking for an existing
// (name, labels) pair returns the same instrument, so packages can
// re-register cheaply. Registering one name as two different kinds (or
// a histogram with different buckets) panics — a programming error, as
// in the Prometheus client.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// SetHelp attaches HELP text to a metric name.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
		return
	}
	r.families[name] = &family{name: name, help: help, kind: -1, series: map[string]*series{}}
}

// Counter registers (or fetches) the counter for name+labels.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.register(name, kindCounter, nil, labels).(*Counter)
}

// Gauge registers (or fetches) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.register(name, kindGauge, nil, labels).(*Gauge)
}

// Unregister removes the series for name+labels, so bounded-
// cardinality layers (the usage accountant's top-K eviction) can keep
// the registry from growing with principal churn. The instrument
// object stays valid for holders — updates to it are simply no longer
// exported. Reports whether a series was removed. The family and its
// help text stay registered.
func (r *Registry) Unregister(name string, labels Labels) bool {
	sig := labels.signature()
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return false
	}
	if _, ok := f.series[sig]; !ok {
		return false
	}
	delete(f.series, sig)
	return true
}

// Histogram registers (or fetches) the histogram for name+labels with
// the given bucket upper bounds (nil = DefLatencyBuckets). Bounds are
// sorted and deduplicated; every series of one name shares one bucket
// layout.
func (r *Registry) Histogram(name string, buckets []float64, labels Labels) *Histogram {
	return r.register(name, kindHistogram, buckets, labels).(*Histogram)
}

func (r *Registry) register(name string, k kind, buckets []float64, labels Labels) any {
	sig := labels.signature()
	r.mu.RLock()
	if f, ok := r.families[name]; ok && f.kind == k {
		if s, ok := f.series[sig]; ok {
			r.mu.RUnlock()
			return s.inst
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, series: map[string]*series{}}
		r.families[name] = f
	} else if f.kind == -1 { // created by SetHelp
		f.kind = k
	} else if f.kind != k {
		panic(fmt.Sprintf("instrument: %q registered as %s and %s", name, f.kind, k))
	}
	if k == kindHistogram {
		bs := normalizeBuckets(buckets)
		if f.buckets == nil {
			f.buckets = bs
		} else if !equalBuckets(f.buckets, bs) {
			panic(fmt.Sprintf("instrument: histogram %q re-registered with different buckets", name))
		}
	}
	if s, ok := f.series[sig]; ok {
		return s.inst
	}
	var inst any
	switch k {
	case kindCounter:
		inst = &Counter{}
	case kindGauge:
		inst = &Gauge{}
	default:
		inst = &Histogram{bounds: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	f.series[sig] = &series{labels: cloneLabels(labels), inst: inst}
	return inst
}

func normalizeBuckets(b []float64) []float64 {
	if len(b) == 0 {
		b = DefLatencyBuckets
	}
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	dedup := out[:0]
	for i, v := range out {
		if math.IsInf(v, 1) {
			continue // +Inf is implicit
		}
		if i > 0 && v == out[i-1] {
			continue
		}
		dedup = append(dedup, v)
	}
	return dedup
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cloneLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// signature renders labels as a deterministic `k="v",…` signature: the
// registry's series key, also used verbatim inside the braces of the
// Prometheus exposition.
func (l Labels) signature() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// --- export ----------------------------------------------------------------

// each walks the registry in export order, deterministic by metric
// name and then label signature: family for each family that holds an
// instrument, then series for each of its series. The caller holds r.mu.
func (r *Registry) each(family func(name string, f *family), series func(sig string, s *series)) {
	names := make([]string, 0, len(r.families))
	for n, f := range r.families {
		if f.kind != -1 { // -1: a help-only placeholder
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.families[n]
		family(n, f)
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			series(sig, f.series[sig])
		}
	}
}

// Each calls fn for every series in export order (see each) under the
// registry's read lock: the metric name, the series' label signature,
// its labels and its *Counter, *Gauge or *Histogram. fn must neither
// keep labels nor call back into the registry.
func (r *Registry) Each(fn func(name, sig string, labels Labels, inst any)) {
	var name string
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.each(func(n string, _ *family) { name = n }, func(sig string, s *series) { fn(name, sig, s.labels, s.inst) })
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	var name string
	r.mu.RLock()
	r.each(func(n string, f *family) {
		name = n
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", n, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", n, f.kind)
	}, func(sig string, s *series) {
		switch inst := s.inst.(type) {
		case *Counter:
			writeSample(&b, name, sig, "", inst.Value())
		case *Gauge:
			writeSample(&b, name, sig, "", inst.Value())
		case *Histogram:
			cum := inst.Cumulative()
			for i, bound := range inst.bounds {
				writeSample(&b, name+"_bucket", sig, `le="`+formatFloat(bound)+`"`, float64(cum[i]))
			}
			writeSample(&b, name+"_bucket", sig, `le="+Inf"`, float64(cum[len(cum)-1]))
			writeSample(&b, name+"_sum", sig, "", inst.Sum())
			writeSample(&b, name+"_count", sig, "", float64(inst.Count()))
		}
	})
	r.mu.RUnlock()
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, sig, extra string, v float64) {
	b.WriteString(name)
	if sig != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		if sig != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// BucketJSON is one cumulative histogram bucket in the JSON export.
type BucketJSON struct {
	LE    float64 `json:"le"` // +Inf encodes as the largest finite float
	Count uint64  `json:"count"`
}

// SeriesJSON is one labelled time series in the JSON export.
type SeriesJSON struct {
	Labels Labels `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Buckets/Sum/Count are set for histograms.
	Buckets []BucketJSON `json:"buckets,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Count   *uint64      `json:"count,omitempty"`
	// Exemplar is the histogram's latest trace-linked observation.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// MetricJSON is one metric family in the JSON export.
type MetricJSON struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []SeriesJSON `json:"series"`
}

// Snapshot returns the registry contents for JSON rendering, ordered
// like WritePrometheus.
func (r *Registry) Snapshot() []MetricJSON {
	out := []MetricJSON{} // an empty registry encodes as [], not null
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.each(func(n string, f *family) {
		out = append(out, MetricJSON{Name: n, Type: f.kind.String(), Help: f.help})
	}, func(_ string, s *series) {
		sj := SeriesJSON{Labels: cloneLabels(s.labels)}
		switch inst := s.inst.(type) {
		case *Counter:
			v := inst.Value()
			sj.Value = &v
		case *Gauge:
			v := inst.Value()
			sj.Value = &v
		case *Histogram:
			cum := inst.Cumulative()
			for i, bound := range inst.bounds {
				sj.Buckets = append(sj.Buckets, BucketJSON{LE: bound, Count: cum[i]})
			}
			sj.Buckets = append(sj.Buckets, BucketJSON{LE: math.MaxFloat64, Count: cum[len(cum)-1]})
			sum, cnt := inst.Sum(), inst.Count()
			sj.Sum, sj.Count = &sum, &cnt
			sj.Exemplar = inst.Exemplar()
		}
		mj := &out[len(out)-1]
		mj.Series = append(mj.Series, sj)
	})
	return out
}
