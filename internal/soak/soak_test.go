package soak

import (
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"caladrius/internal/chaos"
	"caladrius/internal/instrument"
	"caladrius/internal/telemetry"
)

// fakeClock is a hand-advanced clock shared by the daemon's chaos
// gate, scraper, and SLO evaluator, so the entire fault cycle is
// deterministic: no sleeps, no wall-clock races.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// TestSoakDeterministicFaultCycle is the closed-loop soak e2e in
// miniature: an in-process daemon under request load while a chaos
// metrics-outage fires, all on a fake clock. It walks the full cycle —
// healthy → outage (503 + Retry-After, 5xx SLO fires) → recovery (SLO
// resolves) — and then asserts zero unaccounted responses and that
// teardown returns the process to its goroutine baseline.
func TestSoakDeterministicFaultCycle(t *testing.T) {
	const (
		step        = 500 * time.Millisecond
		outageAt    = 3 * time.Second
		outageFor   = 3 * time.Second
		totalWindow = 14 * time.Second
	)
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	runtime.GC()
	baseline := runtime.NumGoroutine()

	d, err := StartDaemon(DaemonOptions{
		Now:       clock.Now,
		ChaosPlan: MetricsOutagePlan(outageAt, outageFor),
		SLOWindow: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = d.Close()
		}
	}()

	client := &http.Client{Timeout: 10 * time.Second}
	l := &load{base: d.URL, client: client, now: clock.Now}

	// Drive the cycle by hand: each tick advances the fake clock, sends
	// the next slice of the cycle and scrapes at the fake time
	// (AfterScrape feeds the SLO evaluator). load.run paces itself on
	// its clock, so the deterministic variant owns dispatch itself.
	var (
		next           uint64
		outage503      int
		outagePredicts int
		sawRetryAfter  bool
		firingDuring   bool
		elapsed        time.Duration
		perTick        = 6
	)
	for elapsed = 0; elapsed < totalWindow; elapsed += step {
		now := clock.Advance(step)
		inOutage := elapsed+step > outageAt && elapsed < outageAt+outageFor
		for i := 0; i < perTick; i++ {
			op := cycle[next%uint64(len(cycle))]
			resp := l.issue(next)
			next++
			if !inOutage || op != OpPredict {
				continue
			}
			// Predicts during the outage check the Retry-After
			// contract, not just the status code.
			outagePredicts++
			if resp == nil {
				t.Fatal("predict during outage: no response")
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				outage503++
				if resp.Header.Get("Retry-After") != "" {
					sawRetryAfter = true
				}
			}
		}
		d.Scraper.ScrapeOnce(now)
		for _, a := range d.SLO.Evaluate() {
			if a.Rule == "http-5xx-rate" && a.State == telemetry.StateFiring {
				firingDuring = true
			}
		}
	}

	if outagePredicts == 0 {
		t.Fatal("the cycle never sent a predict during the outage window")
	}
	if outage503 == 0 {
		t.Fatalf("no 503s across %d predicts during the metrics outage", outagePredicts)
	}
	if !sawRetryAfter {
		t.Error("503 responses during the outage carried no Retry-After header")
	}
	if !firingDuring {
		t.Error("http-5xx-rate never fired while the outage drove 503s")
	}

	// Recovery: keep scraping past the outage until the 5xx window
	// drains. Bounded by fake-clock ticks, not wall time.
	var finalFiring []string
	for i := 0; i < 40; i++ {
		now := clock.Advance(step)
		l.issue(next)
		next++
		d.Scraper.ScrapeOnce(now)
		finalFiring = finalFiring[:0]
		for _, a := range d.SLO.Evaluate() {
			if a.State == telemetry.StateFiring {
				finalFiring = append(finalFiring, a.Rule)
			}
		}
		if len(finalFiring) == 0 {
			break
		}
	}
	if len(finalFiring) != 0 {
		t.Fatalf("SLOs still firing after recovery: %v", finalFiring)
	}

	fired := d.Registry.Counter("caladrius_slo_transitions_total",
		instrument.Labels{"rule": "http-5xx-rate", "to": "firing"}).Value()
	resolved := d.Registry.Counter("caladrius_slo_transitions_total",
		instrument.Labels{"rule": "http-5xx-rate", "to": "resolved"}).Value()
	if fired < 1 || resolved < 1 {
		t.Errorf("http-5xx-rate transitions: to_firing=%g to_resolved=%g, want >=1 each", fired, resolved)
	}

	rep := l.rec.report()
	if issued := l.issued.Load(); issued != rep.Totals.Count {
		t.Errorf("issued %d requests, recorded %d", issued, rep.Totals.Count)
	}
	if rep.Totals.Other != 0 {
		t.Errorf("%d responses fell outside 2xx/4xx/5xx accounting", rep.Totals.Other)
	}
	if rep.Totals.Transport != 0 {
		t.Errorf("%d transport errors against an in-process daemon", rep.Totals.Transport)
	}
	if rep.Totals.Count == 0 || rep.Totals.Status2xx == 0 {
		t.Fatalf("load produced no successful traffic: %+v", rep.Totals)
	}

	if err := d.Close(); err != nil {
		t.Errorf("daemon close: %v", err)
	}
	closed = true
	client.CloseIdleConnections()
	final := runtime.NumGoroutine()
	for end := time.Now().Add(5 * time.Second); final > baseline+goroutineSlack && time.Now().Before(end); {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		final = runtime.NumGoroutine()
	}
	if final > baseline+goroutineSlack {
		t.Errorf("goroutines did not return to baseline: %d -> %d (slack %d)", baseline, final, goroutineSlack)
	}
}

// TestVerdictTable feeds verdict one synthetic result per exit
// assertion: each must produce exactly its own message, and a clean
// result none.
func TestVerdictTable(t *testing.T) {
	outage := MetricsOutagePlan(time.Second, time.Second)
	clean := func() *SoakResult {
		return &SoakResult{
			Report:            Report{Totals: OpReport{Count: 100, Status2xx: 80, Status5xx: 20, Unavail503: 20}},
			Issued:            100,
			Recorded:          100,
			GoroutineBaseline: 3,
			GoroutineFinal:    3 + goroutineSlack,
			HeapBaseline:      1 << 20,
			HeapFinal:         1<<20 + heapSlackBytes,
			Transitions:       map[string]RuleTransitions{sloRule: {ToFiring: 1, ToResolved: 1}},
			FinalAlerts:       []telemetry.Alert{{Rule: sloRule, State: telemetry.StateOK}},
			Settle:            chaos.Duration(12 * time.Second),
		}
	}
	cases := []struct {
		name   string
		mutate func(*SoakResult)
		plan   *chaos.Plan
		want   string // "" = passes
	}{
		{name: "clean", want: ""},
		{name: "close error", mutate: func(r *SoakResult) { r.CloseError = "listener busy" },
			want: "daemon close: listener busy"},
		{name: "still firing", mutate: func(r *SoakResult) {
			r.FinalAlerts = []telemetry.Alert{{Rule: sloRule, State: telemetry.StateFiring}}
			r.Transitions[sloRule] = RuleTransitions{ToFiring: 2, ToResolved: 1}
		}, want: `SLO "http-5xx-rate" still firing after 12s settle`},
		{name: "goroutine leak", mutate: func(r *SoakResult) { r.GoroutineFinal++ },
			want: "goroutine leak: baseline 3, final 10 (slack 6)"},
		{name: "heap growth", mutate: func(r *SoakResult) { r.HeapFinal++ },
			want: "heap growth: baseline 1048576 bytes, final 269484033 bytes"},
		{name: "issued not recorded", mutate: func(r *SoakResult) { r.Recorded = 99 },
			want: "unaccounted responses: issued 100, recorded 99"},
		{name: "outside the status classes", mutate: func(r *SoakResult) { r.Report.Totals.Other = 2 },
			want: "2 responses outside 2xx/4xx/5xx/transport classes"},
		{name: "fault never bit", mutate: func(r *SoakResult) { r.Report.Totals.Unavail503 = 0 },
			want: "chaos plan has metrics faults but no 503s were observed — the fault never bit"},
		{name: "never fired", mutate: func(r *SoakResult) { r.Transitions[sloRule] = RuleTransitions{} },
			want: `SLO "http-5xx-rate" never fired although the chaos plan has metrics faults`},
		{name: "never resolved", mutate: func(r *SoakResult) { r.Transitions[sloRule] = RuleTransitions{ToFiring: 1} },
			want: `SLO "http-5xx-rate" fired but never resolved`},
		// The guard: without a metrics fault no 503 and no transition
		// is owed.
		{name: "no metrics faults owes no outage", plan: &chaos.Plan{}, mutate: func(r *SoakResult) {
			r.Report.Totals.Unavail503 = 0
			r.Transitions = map[string]RuleTransitions{}
		}, want: ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := clean()
			if tc.mutate != nil {
				tc.mutate(res)
			}
			plan := tc.plan
			if plan == nil {
				plan = outage
			}
			got := verdict(res, plan)
			if tc.want == "" {
				// An empty list, not nil: the verdict JSON prints [].
				if got == nil || len(got) != 0 {
					t.Fatalf("verdict = %#v, want an empty list", got)
				}
				return
			}
			if len(got) != 1 || got[0] != tc.want {
				t.Fatalf("verdict = %q, want exactly %q", got, tc.want)
			}
		})
	}
}

// TestRunSoakRefusesSimulatorFaults: the soak's daemon serves a
// pre-simulated history and has no fault injector, so a simulator
// fault could never fire and the verdict would owe nothing for it. A
// plan holding one is an error, raised before a daemon is assembled.
func TestRunSoakRefusesSimulatorFaults(t *testing.T) {
	plan := &chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.FaultCrash, At: chaos.Duration(time.Second), Duration: chaos.Duration(time.Second), Component: "counter", Instance: 1},
	}}
	_, err := RunSoak(SoakConfig{Duration: time.Second, SLOWindow: time.Second, Settle: time.Second, Plan: plan})
	if err == nil || !strings.Contains(err.Error(), "crash counter[1]") {
		t.Fatalf("RunSoak(crash-only plan) error = %v, want one naming crash counter[1]", err)
	}
}

func TestRecorderStatusClassification(t *testing.T) {
	var r recorder
	for _, status := range []int{200, 201, 400, 429, 500, 503,
		0,   // transport failure
		302, // unexpected class
	} {
		r.record(OpPredict, status)
	}

	rep := r.report()
	st := rep.Ops[OpPredict]
	if st.Count != 8 {
		t.Fatalf("count = %d, want 8", st.Count)
	}
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"2xx", st.Status2xx, 2},
		{"4xx", st.Status4xx, 2},
		{"shed 429", st.Shed429, 1},
		{"5xx", st.Status5xx, 2},
		{"unavailable 503", st.Unavail503, 1},
		{"transport", st.Transport, 1},
		{"unaccounted", st.Other, 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if rep.Totals.Count != 8 || rep.Totals.Shed429 != 1 || rep.Totals.Other != 1 {
		t.Errorf("totals not aggregated: %+v", rep.Totals)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r recorder
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op := cycle[w%len(cycle)]
			for i := 0; i < per; i++ {
				r.record(op, 200)
			}
		}(w)
	}
	wg.Wait()
	if got := r.report().Totals.Count; got != workers*per {
		t.Fatalf("concurrent records lost: %d of %d", got, workers*per)
	}
}
