package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// TracePoint is one sample of a recorded traffic trace: the offered
// rate from a given elapsed offset onward.
type TracePoint struct {
	Elapsed time.Duration
	// RatePerMinute is the offered rate in tuples per minute.
	RatePerMinute float64
}

// Trace is a replayable traffic recording. Between samples the rate is
// held (step interpolation by default) or linearly interpolated.
type Trace struct {
	points []TracePoint
	// Interpolate linearly between samples instead of holding the
	// previous value.
	Interpolate bool
	// Loop repeats the trace once the last sample's offset is passed.
	Loop bool
}

// NewTrace builds a trace from samples, sorting them by offset.
func NewTrace(points []TracePoint) (*Trace, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	cp := append([]TracePoint(nil), points...)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Elapsed < cp[j].Elapsed })
	for i, p := range cp {
		if p.Elapsed < 0 || p.RatePerMinute < 0 {
			return nil, fmt.Errorf("workload: trace sample %d has negative field (%s, %g)", i, p.Elapsed, p.RatePerMinute)
		}
		if i > 0 && p.Elapsed == cp[i-1].Elapsed {
			return nil, fmt.Errorf("workload: duplicate trace offset %s", p.Elapsed)
		}
	}
	return &Trace{points: cp}, nil
}

// ParseTraceCSV reads a two-column CSV of (elapsed, rate):
//
//	# elapsed_seconds,tuples_per_minute
//	0,12000000
//	300,18000000
//	600,25000000
//
// The elapsed column accepts plain seconds ("300") or Go durations
// ("5m"). Lines starting with '#' and a header line of non-numeric
// fields are skipped. A rate must be finite, and an offset finite and
// within a time.Duration (±292 years).
func ParseTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.Comment = '#'
	var points []TracePoint
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace csv: %w", err)
		}
		line++
		if len(rec) < 2 {
			return nil, fmt.Errorf("workload: trace csv line %d: want 2 columns, got %d", line, len(rec))
		}
		elapsed, err := parseElapsed(strings.TrimSpace(rec[0]))
		if err != nil {
			if line == 1 && errors.Is(err, errNotElapsed) {
				continue // header row
			}
			return nil, fmt.Errorf("workload: trace csv line %d: %w", line, err)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		if err != nil {
			if line == 1 {
				continue
			}
			return nil, fmt.Errorf("workload: trace csv line %d: bad rate %q", line, rec[1])
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			return nil, fmt.Errorf("workload: trace csv line %d: rate %q is not finite", line, rec[1])
		}
		points = append(points, TracePoint{Elapsed: elapsed, RatePerMinute: rate})
	}
	return NewTrace(points)
}

// errNotElapsed marks an elapsed field that is neither a number nor a
// Go duration, as a header's is.
var errNotElapsed = errors.New("want seconds or a Go duration")

func parseElapsed(s string) (time.Duration, error) {
	secs, err := strconv.ParseFloat(s, 64)
	if errors.Is(err, strconv.ErrSyntax) {
		d, err := time.ParseDuration(s)
		if err != nil {
			return 0, fmt.Errorf("bad elapsed %q: %w", s, errNotElapsed)
		}
		return d, nil
	}
	// As float64 the bounds are −2⁶³ and 2⁶³, so the upper one is
	// strict; NaN fails both.
	if ns := secs * float64(time.Second); ns >= math.MinInt64 && ns < math.MaxInt64 {
		return time.Duration(ns), nil
	}
	return 0, fmt.Errorf("elapsed %q seconds is not finite or does not fit a time.Duration", s)
}

// Duration returns the offset of the last sample.
func (t *Trace) Duration() time.Duration {
	return t.points[len(t.points)-1].Elapsed
}

// RateAt returns the offered rate (tuples/minute) at the given elapsed
// time.
func (t *Trace) RateAt(elapsed time.Duration) float64 {
	if t.Loop && t.Duration() > 0 {
		elapsed = elapsed % t.Duration()
	}
	if elapsed <= t.points[0].Elapsed {
		return t.points[0].RatePerMinute
	}
	// Binary search for the last sample at or before elapsed.
	lo, hi := 0, len(t.points)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.points[mid].Elapsed <= elapsed {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	cur := t.points[lo]
	if !t.Interpolate || lo == len(t.points)-1 {
		return cur.RatePerMinute
	}
	next := t.points[lo+1]
	frac := float64(elapsed-cur.Elapsed) / float64(next.Elapsed-cur.Elapsed)
	return cur.RatePerMinute + frac*(next.RatePerMinute-cur.RatePerMinute)
}

// Schedule adapts the trace to the simulator's RateSchedule (tuples per
// second).
func (t *Trace) Schedule() RateSchedule {
	return func(elapsed time.Duration) float64 {
		return t.RateAt(elapsed) / 60
	}
}
