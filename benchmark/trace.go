package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer; the product code carries no benchmark hooks. They
// stay in memory and are written out when the run ends.

// span is one timed call. Times are nanoseconds since the recorder was
// made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Req    int    `json:"req"`    // spans of one replayed request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder collects spans from a single goroutine.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// start opens a span and returns its id.
func (r *spanRecorder) start(name string, parent, req int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) {
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// selfTimes returns, per span name, every span's self time in
// nanoseconds: its duration minus the part its child spans cover.
// Children of one parent never overlap here (one goroutine), so the
// covered part is the sum of their durations.
func (r *spanRecorder) selfTimes() map[string][]float64 {
	covered := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		covered[s.Parent] += s.End - s.Start
	}
	out := map[string][]float64{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[s.ID]))
	}
	return out
}

// durations returns the length in nanoseconds of every span called name.
func durations(r *spanRecorder, name string) []float64 {
	var d []float64
	for _, s := range r.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return d
}

// spanSummary is one row of the ranked per-stage breakdown.
type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	SelfP50  float64 `json:"self_p50_us"`
	SelfTail float64 `json:"self_tail_us"`
	TailPct  float64 `json:"tail_pct"`
}

func (r *spanRecorder) summary() []spanSummary {
	var rows []spanSummary
	for name, self := range r.selfTimes() {
		s := sortedCopy(self)
		t, pct := tail(s)
		rows = append(rows, spanSummary{Name: name, Count: len(s), SelfP50: percentile(s, 50) / 1e3, SelfTail: t / 1e3, TailPct: pct})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfP50 != rows[j].SelfP50 {
			return rows[i].SelfP50 > rows[j].SelfP50
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// tracePath is one replayed path's spans as written to trace.json.
type tracePath struct {
	Summary []spanSummary `json:"summary"`
	Spans   []span        `json:"spans"`
}

// writeTrace stores each path's ranked summary and raw spans at path.
func writeTrace(path string, paths map[string]*spanRecorder) error {
	out := map[string]tracePath{}
	for name, r := range paths {
		out[name] = tracePath{r.summary(), r.spans}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
