package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNewTraceValidation(t *testing.T) {
	if _, err := NewTrace(nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTrace([]TracePoint{{Elapsed: -time.Second, RatePerMinute: 1}}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := NewTrace([]TracePoint{{0, -1}}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewTrace([]TracePoint{{0, 1}, {0, 2}}); err == nil {
		t.Error("duplicate offset accepted")
	}
}

func TestTraceStepAndInterpolate(t *testing.T) {
	tr, err := NewTrace([]TracePoint{
		{0, 100},
		{time.Minute, 200},
		{2 * time.Minute, 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step (default): hold previous value.
	if got := tr.RateAt(30 * time.Second); got != 100 {
		t.Errorf("step 30s = %g", got)
	}
	if got := tr.RateAt(90 * time.Second); got != 200 {
		t.Errorf("step 90s = %g", got)
	}
	if got := tr.RateAt(10 * time.Minute); got != 400 {
		t.Errorf("past end = %g", got)
	}
	// Linear interpolation.
	tr.Interpolate = true
	if got := tr.RateAt(30 * time.Second); got != 150 {
		t.Errorf("lerp 30s = %g", got)
	}
	if got := tr.RateAt(90 * time.Second); got != 300 {
		t.Errorf("lerp 90s = %g", got)
	}
	// Exact samples unchanged.
	if got := tr.RateAt(time.Minute); got != 200 {
		t.Errorf("exact = %g", got)
	}
	if tr.Duration() != 2*time.Minute {
		t.Errorf("duration = %s", tr.Duration())
	}
}

func TestTraceLoop(t *testing.T) {
	tr, err := NewTrace([]TracePoint{{0, 100}, {time.Minute, 200}})
	if err != nil {
		t.Fatal(err)
	}
	tr.Loop = true
	if got := tr.RateAt(90 * time.Second); got != 100 {
		t.Errorf("looped 90s = %g (30s into second pass)", got)
	}
}

func TestParseTraceCSV(t *testing.T) {
	src := `# comment
elapsed_seconds,tuples_per_minute
0,12000000
300,18000000
10m,25000000
`
	tr, err := ParseTraceCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != 10*time.Minute {
		t.Errorf("duration = %s", tr.Duration())
	}
	if got := tr.RateAt(0); got != 12e6 {
		t.Errorf("rate(0) = %g", got)
	}
	if got := tr.RateAt(6 * time.Minute); got != 18e6 {
		t.Errorf("rate(6m) = %g", got)
	}
	// Schedule converts to per-second.
	if got := tr.Schedule()(0); got != 12e6/60 {
		t.Errorf("schedule(0) = %g", got)
	}
}

func TestParseTraceCSVErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"", "empty trace"},
		{"0\n", "line 1: want 2 columns"},
		{"0,1\nbad,2\n", "line 2: bad elapsed"},
		{"0,1\n300,notnum\n", "line 2: bad rate"},
		{"0,1\n0,2\n", "duplicate trace offset"},
		// A rate or offset that is no finite number, or an offset past
		// a time.Duration, would reach the simulator as NaN, +Inf or a
		// platform-dependent conversion.
		{"0,NaN\n", "line 1: rate \"NaN\" is not finite"},
		{"0,1\n60,+Inf\n", "line 2: rate \"+Inf\" is not finite"},
		{"0,1\n1e300,5\n", "line 2: elapsed \"1e300\" seconds is not finite"},
		{"0,1\nNaN,5\n", "line 2: elapsed \"NaN\" seconds is not finite"},
		{"0,1\n+Inf,5\n", "line 2: elapsed \"+Inf\" seconds is not finite"},
		{"NaN,5\n", "line 1: elapsed \"NaN\" seconds is not finite"},
	}
	for _, c := range cases {
		if _, err := ParseTraceCSV(strings.NewReader(c.src)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseTraceCSV(%q) = %v, want an error containing %q", c.src, err, c.want)
		}
	}
}

func TestTraceDrivesSimulatorSchedule(t *testing.T) {
	// The adapted schedule is just the trace divided by 60; exercised
	// via RateSchedule signature compatibility.
	tr, err := NewTrace([]TracePoint{{0, 6000}})
	if err != nil {
		t.Fatal(err)
	}
	var s RateSchedule = tr.Schedule()
	if got := s(time.Hour); got != 100 {
		t.Errorf("schedule = %g", got)
	}
}

// FuzzParseTraceCSV: the trace reader never panics, and a trace it
// accepts is one the simulator can replay: finite, non-negative rates
// at strictly increasing, non-negative offsets, and a finite rate at
// any elapsed time however the trace is replayed.
func FuzzParseTraceCSV(f *testing.F) {
	// The head of examples/capacity_planning's recorded day.
	f.Add([]byte("elapsed_seconds,tuples_per_minute\n0,10000000\n900,10000000\n25200,10000000\n26100,10700000\n27000,11400000\n86400,10000000\n"), int64(26500*time.Second))
	for _, src := range []string{"0,NaN\n", "0,+Inf\n", "0,1\n1e300,5\n", "NaN,5\n", "+Inf,5\n", "0,1\n5m,1.7976931348623157e308\n"} {
		f.Add([]byte(src), int64(time.Minute))
	}
	f.Fuzz(func(t *testing.T, data []byte, at int64) {
		tr, err := ParseTraceCSV(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Fatalf("ParseTraceCSV returned a trace with error %v", err)
			}
			return
		}
		for i, p := range tr.points {
			if math.IsNaN(p.RatePerMinute) || math.IsInf(p.RatePerMinute, 0) || p.RatePerMinute < 0 || p.Elapsed < 0 {
				t.Fatalf("sample %d = %+v: want a finite, non-negative rate at a non-negative offset", i, p)
			}
			if i > 0 && p.Elapsed <= tr.points[i-1].Elapsed {
				t.Fatalf("sample %d at %s does not follow %s", i, p.Elapsed, tr.points[i-1].Elapsed)
			}
		}
		for _, tr.Interpolate = range []bool{false, true} {
			for _, tr.Loop = range []bool{false, true} {
				for _, el := range []time.Duration{time.Duration(at), tr.Duration() / 2, tr.Duration()} {
					if r := tr.Schedule()(el); math.IsNaN(r) || math.IsInf(r, 0) {
						t.Fatalf("rate at %s (interpolate %v, loop %v) = %g", el, tr.Interpolate, tr.Loop, r)
					}
				}
			}
		}
	})
}
