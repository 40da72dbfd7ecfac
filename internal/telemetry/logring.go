package telemetry

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// LogRing is a bounded in-memory ring of recent structured log
// records, kept so the incident flight recorder can snapshot "what was
// the service saying just before the SLO fired" without a log
// aggregator. The ring is lock-cheap: Append copies the record into a
// pre-allocated slot under a short mutex hold and reuses each slot's
// attribute buffer, so steady-state appends perform no allocations —
// logging on the request hot path never becomes a GC tax.
//
// The ring is fed through its slog.Handler (see LogRing.Handler),
// normally teed with the process stderr handler via TeeHandlers so
// operators keep their console stream and the recorder gets its
// history.
type LogRing struct {
	mu    sync.Mutex
	slots []logSlot
	next  int // slot index of the next write
	total uint64
}

type logSlot struct {
	time  time.Time
	level slog.Level
	msg   string
	trace string
	attrs []byte // reused between occupancies
	used  bool
}

// LogRecord is one captured log record, the snapshot/wire form.
type LogRecord struct {
	Time  time.Time  `json:"time"`
	Level slog.Level `json:"level"`
	Msg   string     `json:"msg"`
	// Trace is the request/model-run trace id the record carried (the
	// "trace" attribute), joining logs to spans and exemplars.
	Trace string `json:"trace,omitempty"`
	// Attrs is the record's remaining attributes, formatted "k=v k=v".
	Attrs string `json:"attrs,omitempty"`
}

// DefaultLogRingCapacity bounds a ring built with capacity <= 0.
const DefaultLogRingCapacity = 1024

// NewLogRing returns a ring retaining the last capacity records
// (<= 0 = DefaultLogRingCapacity).
func NewLogRing(capacity int) *LogRing {
	if capacity <= 0 {
		capacity = DefaultLogRingCapacity
	}
	return &LogRing{slots: make([]logSlot, capacity)}
}

// Len returns how many records the ring currently holds.
func (r *LogRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total >= uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(r.total)
}

// Append records one entry, overwriting the oldest when full. msg and
// trace are retained by reference (strings are immutable); attrs bytes
// are copied into the slot's reused buffer, so the caller may recycle
// its buffer immediately. Steady-state appends allocate nothing.
func (r *LogRing) Append(t time.Time, level slog.Level, msg, trace string, attrs []byte) {
	r.mu.Lock()
	s := &r.slots[r.next]
	s.time = t
	s.level = level
	s.msg = msg
	s.trace = trace
	s.attrs = append(s.attrs[:0], attrs...)
	s.used = true
	r.next++
	if r.next == len(r.slots) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained records, oldest first.
func (r *LogRing) Snapshot() []LogRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.slots)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	out := make([]LogRecord, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.slots)
	}
	for i := 0; i < n; i++ {
		s := &r.slots[(start+i)%len(r.slots)]
		if !s.used {
			continue
		}
		out = append(out, LogRecord{
			Time:  s.time,
			Level: s.level,
			Msg:   s.msg,
			Trace: s.trace,
			Attrs: string(s.attrs),
		})
	}
	return out
}

// --- slog.Handler adapter --------------------------------------------------

// ringHandler formats slog records into the ring. Attribute formatting
// reuses pooled buffers; the only steady-state allocations are the
// ones slog itself makes to deliver the record.
type ringHandler struct {
	ring   *LogRing
	min    slog.Level
	prefix []byte // attrs bound via WithAttrs, preformatted
	group  string // open group prefix for subsequent keys
}

// Handler returns a slog.Handler feeding the ring, dropping records
// below min.
func (r *LogRing) Handler(min slog.Level) slog.Handler {
	return &ringHandler{ring: r, min: min}
}

var logBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func (h *ringHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.min
}

func (h *ringHandler) Handle(_ context.Context, rec slog.Record) error {
	bp := logBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], h.prefix...)
	trace := ""
	rec.Attrs(func(a slog.Attr) bool {
		if a.Key == "trace" && h.group == "" {
			trace = a.Value.Resolve().String()
			return true
		}
		buf = appendAttr(buf, h.group, a)
		return true
	})
	t := rec.Time
	if t.IsZero() {
		t = time.Now()
	}
	h.ring.Append(t, rec.Level, rec.Message, trace, buf)
	*bp = buf
	logBufPool.Put(bp)
	return nil
}

func (h *ringHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := &ringHandler{ring: h.ring, min: h.min, group: h.group}
	nh.prefix = append(append([]byte(nil), h.prefix...), formatAttrs(h.group, attrs)...)
	return nh
}

func (h *ringHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := &ringHandler{ring: h.ring, min: h.min, prefix: h.prefix, group: h.group + name + "."}
	return nh
}

func formatAttrs(group string, attrs []slog.Attr) []byte {
	var buf []byte
	for _, a := range attrs {
		buf = appendAttr(buf, group, a)
	}
	return buf
}

func appendAttr(buf []byte, group string, a slog.Attr) []byte {
	if a.Equal(slog.Attr{}) {
		return buf
	}
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		sub := group + a.Key + "."
		if a.Key == "" {
			sub = group
		}
		for _, ga := range v.Group() {
			buf = appendAttr(buf, sub, ga)
		}
		return buf
	}
	if len(buf) > 0 {
		buf = append(buf, ' ')
	}
	buf = append(buf, group...)
	buf = append(buf, a.Key...)
	buf = append(buf, '=')
	return append(buf, v.String()...)
}

// --- tee -------------------------------------------------------------------

// teeHandler fans records out to several handlers — the stderr text
// handler operators read plus the ring the flight recorder snapshots.
type teeHandler struct{ hs []slog.Handler }

// TeeHandlers returns a handler delivering every record to each of hs
// that is enabled for its level. With a single handler it is returned
// unchanged.
func TeeHandlers(hs ...slog.Handler) slog.Handler {
	if len(hs) == 1 {
		return hs[0]
	}
	return &teeHandler{hs: append([]slog.Handler(nil), hs...)}
}

func (t *teeHandler) Enabled(ctx context.Context, level slog.Level) bool {
	for _, h := range t.hs {
		if h.Enabled(ctx, level) {
			return true
		}
	}
	return false
}

func (t *teeHandler) Handle(ctx context.Context, rec slog.Record) error {
	var firstErr error
	for _, h := range t.hs {
		if !h.Enabled(ctx, rec.Level) {
			continue
		}
		if err := h.Handle(ctx, rec.Clone()); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (t *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := make([]slog.Handler, len(t.hs))
	for i, h := range t.hs {
		out[i] = h.WithAttrs(attrs)
	}
	return &teeHandler{hs: out}
}

func (t *teeHandler) WithGroup(name string) slog.Handler {
	out := make([]slog.Handler, len(t.hs))
	for i, h := range t.hs {
		out[i] = h.WithGroup(name)
	}
	return &teeHandler{hs: out}
}
