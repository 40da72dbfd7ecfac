package telemetry

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Tracer records bounded in-memory traces of model-pipeline runs. A
// trace is a tree of named spans with wall-clock timings and string
// attributes; the API tier keys each trace by its job id so a client
// can fetch "where did my request spend its time?" after the fact.
// When the bound is exceeded the oldest trace is evicted (FIFO), so a
// long-lived daemon holds a sliding window of recent runs.
//
// A span is a *Span only while it is open. End packs it into a record
// of a few bytes inside its own trace (see appendRecord): the window of
// retained traces is what a daemon keeps of every request it served,
// so its per-trace cost is paid DefaultMaxTraces times over.
type Tracer struct {
	mu     sync.Mutex
	now    func() time.Time
	max    int
	seq    int
	traces map[string]*traceRec
	order  []string
	// strs interns span names and attribute strings for the records.
	strs strTable
}

// traceRec is one retained trace: the records of its finished spans
// and the list of its open ones.
type traceRec struct {
	id    string
	start time.Time // the root span's; records keep offsets from it
	spans int       // ids handed out so far
	open  *Span     // open spans, newest first, linked through Span.next
	// packed holds the finished spans' records in the order they ended.
	packed []byte
	// evicted is set once the tracer drops the trace, by the FIFO bound
	// or by a later Start under the same id; its spans then record
	// nothing more.
	evicted bool
}

// Span is one timed region of a trace. The zero *Span (nil) is a valid
// no-op: every method is nil-receiver safe, so call sites instrument
// unconditionally and pay nothing when tracing is off.
type Span struct {
	tracer *Tracer
	rec    *traceRec // the span's own trace, even after its id is reused
	id     int
	parent int // 0 = root
	name   string
	start  time.Time
	attrs  [][2]string
	next   *Span // the next open span of rec
	ended  bool
}

// DefaultMaxTraces bounds a tracer's memory when no limit is given.
const DefaultMaxTraces = 512

// NewTracer builds a tracer retaining at most max traces (0 =
// DefaultMaxTraces). now is the wall clock (nil = time.Now); traces
// measure real elapsed time, so frozen demo clocks should not be
// passed here.
func NewTracer(max int, now func() time.Time) *Tracer {
	if max <= 0 {
		max = DefaultMaxTraces
	}
	if now == nil {
		now = time.Now
	}
	return &Tracer{now: now, max: max, traces: map[string]*traceRec{}, strs: strTable{idx: map[string]uint64{}}}
}

// Start opens a new trace with a root span. traceID "" auto-generates
// one ("t-1", "t-2", …); passing an existing id replaces that trace,
// and the replaced trace's spans record nothing more.
func (t *Tracer) Start(traceID, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	if traceID == "" {
		traceID = fmt.Sprintf("t-%d", t.seq)
	}
	if old, exists := t.traces[traceID]; exists {
		old.evicted = true
	} else {
		t.order = append(t.order, traceID)
		for len(t.order) > t.max {
			t.traces[t.order[0]].evicted = true
			delete(t.traces, t.order[0])
			t.order = t.order[1:]
		}
	}
	rec := &traceRec{id: traceID, start: t.now()}
	t.traces[traceID] = rec
	return rec.openLocked(t, 0, name, rec.start)
}

// openLocked adds an open span to rec. Caller holds t.mu.
func (rec *traceRec) openLocked(t *Tracer, parent int, name string, start time.Time) *Span {
	rec.spans++
	sp := &Span{tracer: t, rec: rec, id: rec.spans, parent: parent, name: name, start: start, next: rec.open}
	rec.open = sp
	return sp
}

// TraceID returns the id of the span's trace ("" on the nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.id
}

// Child opens a sub-span. On a nil span, or one whose trace was
// evicted or replaced, it returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.rec.evicted {
		return nil
	}
	return s.rec.openLocked(t, s.id, name, t.now())
}

// StartStage opens a child span and returns its End, satisfying the
// core package's StageTimer interface so model code can report stage
// timings without importing telemetry.
func (s *Span) StartStage(name string) func() {
	sp := s.Child(name)
	return sp.End
}

// SetAttr attaches a key/value attribute to the span. An ended span
// takes no more attributes: its record is already packed.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, [2]string{key, value})
	}
	s.tracer.mu.Unlock()
}

// End closes the span, packing it into its trace's records. Ending
// twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	rec := s.rec
	if rec.evicted {
		return
	}
	for p := &rec.open; *p != nil; p = &(*p).next {
		if *p == s {
			*p = s.next
			break
		}
	}
	if rec.packed == nil {
		rec.packed = make([]byte, 0, packedHint)
	}
	rec.packed = t.appendRecord(rec.packed, rec, s, t.now())
	if rec.open == nil && cap(rec.packed) > packedHint && cap(rec.packed)-len(rec.packed) > len(rec.packed)/4 {
		// The trace is complete: drop the slack its appends grew.
		rec.packed = slices.Clone(rec.packed)
	}
	s.attrs, s.next = nil, nil
}

// --- packed span records ---------------------------------------------------

// A finished span's record is
//
//	uvarint id, uvarint parent, str name,
//	varint start (ns after the trace's root, wall clock),
//	varint duration (ns), uvarint attribute count, then per attribute
//	str key, str value
//
// where str is a uvarint reference into the tracer's string table
// (index+1), or 0 followed by the uvarint length and the bytes.

// packedHint is the capacity a trace's records start with. A predict's
// five records take 48–68 bytes as its spans' timings need more varint
// bytes, so they cost one allocation however long the spans ran.
const packedHint = 80

// appendRecord appends s's record, ended at end, to b. Caller holds t.mu.
func (t *Tracer) appendRecord(b []byte, rec *traceRec, s *Span, end time.Time) []byte {
	b = binary.AppendUvarint(b, uint64(s.id))
	b = binary.AppendUvarint(b, uint64(s.parent))
	b = t.strs.appendRef(b, s.name)
	// The offset is taken between wall readings, so the decoded start is
	// the span's own wall instant; the duration keeps the monotonic one.
	b = binary.AppendVarint(b, int64(s.start.Round(0).Sub(rec.start.Round(0))))
	b = binary.AppendVarint(b, int64(end.Sub(s.start)))
	b = binary.AppendUvarint(b, uint64(len(s.attrs)))
	for _, kv := range s.attrs {
		b = t.strs.appendRef(b, kv[0])
		b = t.strs.appendRef(b, kv[1])
	}
	return b
}

// spanNode is one decoded or open span, before it is nested.
type spanNode struct {
	id, parent int
	sj         SpanJSON
}

// decodeRecord reads rec's record at the front of r. Caller holds t.mu.
func (t *Tracer) decodeRecord(r *recordReader, rec *traceRec) spanNode {
	n := spanNode{id: int(r.uvarint()), parent: int(r.uvarint())}
	n.sj.Name = t.strs.read(r)
	n.sj.Start = rec.start.Add(time.Duration(r.varint()))
	n.sj.DurationMs = float64(time.Duration(r.varint())) / float64(time.Millisecond)
	if k := int(r.uvarint()); k > 0 {
		n.sj.Attrs = make(map[string]string, k)
		for range k {
			key := t.strs.read(r)
			n.sj.Attrs[key] = t.strs.read(r)
		}
	}
	return n
}

// recordReader walks a buffer of records the tracer itself wrote.
type recordReader struct{ b []byte }

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *recordReader) varint() int64 {
	v, n := binary.Varint(r.b)
	r.b = r.b[n:]
	return v
}

// maxInterned and maxInternedLen bound the string table: past them a
// string is stored inline in each record that names it. Span names
// such as "forecast:"+model and attribute values such as tenants carry
// client text, so the table must not grow with it.
const (
	maxInterned    = 1024
	maxInternedLen = 64
)

// strTable interns the strings of span records, first come first served.
type strTable struct {
	idx  map[string]uint64 // index+1
	strs []string
}

// appendRef appends the reference to s, interning it while there is room.
func (st *strTable) appendRef(b []byte, s string) []byte {
	if ref, ok := st.idx[s]; ok {
		return binary.AppendUvarint(b, ref)
	}
	if len(st.strs) < maxInterned && len(s) <= maxInternedLen {
		s = strings.Clone(s) // keep no request buffer alive through the table
		st.strs = append(st.strs, s)
		st.idx[s] = uint64(len(st.strs))
		return binary.AppendUvarint(b, uint64(len(st.strs)))
	}
	b = append(b, 0)
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// read returns the string a reference at the front of r names.
func (st *strTable) read(r *recordReader) string {
	if ref := r.uvarint(); ref > 0 {
		return st.strs[ref-1]
	}
	n := r.uvarint()
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// --- context propagation ---------------------------------------------------

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's span and returns the
// derived context plus the new span. With no span in ctx it is a
// no-op: the original ctx and a nil span come back.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := SpanFromContext(ctx).Child(name)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp), sp
}

// --- snapshots -------------------------------------------------------------

// SpanJSON is one span in a trace snapshot, with children nested.
type SpanJSON struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMs float64           `json:"duration_ms"`
	InProgress bool              `json:"in_progress,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []SpanJSON        `json:"children,omitempty"`
}

// TraceJSON is the wire form of one trace: its root spans, children
// nested beneath their parents in start order.
type TraceJSON struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanJSON `json:"spans"`
}

// Snapshot returns the trace's current span tree; open spans report
// the duration so far and in_progress=true.
func (t *Tracer) Snapshot(traceID string) (TraceJSON, bool) {
	if t == nil {
		return TraceJSON{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.traces[traceID]
	if !ok {
		return TraceJSON{}, false
	}
	return t.snapshotLocked(rec), true
}

// Recent returns snapshots of up to n of the most recently started
// traces, oldest first — the span ring an incident bundle captures.
func (t *Tracer) Recent(n int) []TraceJSON {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.order
	if len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	out := make([]TraceJSON, 0, len(ids))
	for _, id := range ids {
		if rec, ok := t.traces[id]; ok {
			out = append(out, t.snapshotLocked(rec))
		}
	}
	return out
}

// snapshotLocked builds the span tree of one trace from its records
// and its open spans. Caller holds t.mu.
func (t *Tracer) snapshotLocked(rec *traceRec) TraceJSON {
	now := t.now()
	var nodes []spanNode
	for r := (recordReader{rec.packed}); len(r.b) > 0; {
		nodes = append(nodes, t.decodeRecord(&r, rec))
	}
	for sp := rec.open; sp != nil; sp = sp.next {
		sj := SpanJSON{Name: sp.name, Start: sp.start, InProgress: true,
			DurationMs: float64(now.Sub(sp.start)) / float64(time.Millisecond)}
		if len(sp.attrs) > 0 {
			sj.Attrs = make(map[string]string, len(sp.attrs))
			for _, kv := range sp.attrs {
				sj.Attrs[kv[0]] = kv[1]
			}
		}
		nodes = append(nodes, spanNode{id: sp.id, parent: sp.parent, sj: sj})
	}
	// Ids are handed out in start order, so children nest in it.
	slices.SortFunc(nodes, func(a, b spanNode) int { return a.id - b.id })
	children := map[int][]int{}
	for i, n := range nodes {
		children[n.parent] = append(children[n.parent], i)
	}
	var build func(parent int) []SpanJSON
	build = func(parent int) []SpanJSON {
		var out []SpanJSON
		for _, i := range children[parent] {
			sj := nodes[i].sj
			sj.Children = build(nodes[i].id)
			out = append(out, sj)
		}
		return out
	}
	return TraceJSON{TraceID: rec.id, Spans: build(0)}
}

// Len reports how many traces are retained (for tests).
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}
