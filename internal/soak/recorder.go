package soak

import (
	"sync"
	"time"
)

// OpReport counts one operation's outcomes by status class.
type OpReport struct {
	Count      uint64 `json:"count"`
	Status2xx  uint64 `json:"status_2xx"`
	Status4xx  uint64 `json:"status_4xx"`
	Status5xx  uint64 `json:"status_5xx"`
	Shed429    uint64 `json:"shed_429"`        // subset of 4xx: admission-control sheds
	Unavail503 uint64 `json:"unavailable_503"` // subset of 5xx: backend unavailable
	Transport  uint64 `json:"transport_errors"`
	Other      uint64 `json:"unaccounted"` // status outside 2xx/4xx/5xx
}

// add folds o into r.
func (r *OpReport) add(o OpReport) {
	r.Count += o.Count
	r.Status2xx += o.Status2xx
	r.Status4xx += o.Status4xx
	r.Status5xx += o.Status5xx
	r.Shed429 += o.Shed429
	r.Unavail503 += o.Unavail503
	r.Transport += o.Transport
	r.Other += o.Other
}

// Recorder accumulates request outcomes across operations. Safe for
// concurrent use; Record holds the lock for a constant amount of work.
type Recorder struct {
	mu    sync.Mutex
	ops   map[string]*OpReport
	start time.Time
	end   time.Time
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ops: map[string]*OpReport{}}
}

// Start stamps the load window opening.
func (r *Recorder) Start(t time.Time) {
	r.mu.Lock()
	r.start = t
	r.mu.Unlock()
}

// Finish stamps the load window close.
func (r *Recorder) Finish(t time.Time) {
	r.mu.Lock()
	r.end = t
	r.mu.Unlock()
}

// Record logs one request outcome. status 0 means the request failed
// at the transport layer (no HTTP response).
func (r *Recorder) Record(op string, status int) {
	r.mu.Lock()
	st, ok := r.ops[op]
	if !ok {
		st = &OpReport{}
		r.ops[op] = st
	}
	st.Count++
	switch {
	case status == 0:
		st.Transport++
	case status >= 200 && status < 300:
		st.Status2xx++
	case status >= 400 && status < 500:
		st.Status4xx++
		if status == 429 {
			st.Shed429++
		}
	case status >= 500 && status < 600:
		st.Status5xx++
		if status == 503 {
			st.Unavail503++
		}
	default:
		st.Other++
	}
	r.mu.Unlock()
}

// Report is the machine-readable account of a load window.
type Report struct {
	DurationSeconds float64             `json:"duration_seconds"`
	Totals          OpReport            `json:"totals"`
	Ops             map[string]OpReport `json:"ops"`
}

// Report summarises everything recorded so far. The window is
// [Start, Finish]; a zero Finish leaves DurationSeconds 0.
func (r *Recorder) Report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{Ops: make(map[string]OpReport, len(r.ops))}
	if elapsed := r.end.Sub(r.start); elapsed > 0 {
		rep.DurationSeconds = elapsed.Seconds()
	}
	for op, st := range r.ops {
		rep.Ops[op] = *st
		rep.Totals.add(*st)
	}
	return rep
}
