package soak

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"caladrius/internal/chaos"
	"caladrius/internal/telemetry"
)

// goroutineSlack is how many extra goroutines the post-soak process
// may hold versus the pre-soak baseline before the leak check fails.
// The runtime itself (GC workers, timer goroutines, finalizers) can
// legitimately grow by a few.
const goroutineSlack = 6

// heapSlackBytes bounds post-soak heap growth. The soak is minutes at
// most; anything past this is a retained-reference leak, not noise.
const heapSlackBytes = 256 << 20

// The load the soak drives, fixed: DefaultMix from a small closed-loop
// worker population on one seeded (op, tenant) ring.
const (
	soakConcurrency = 4
	soakSeed        = 1
)

// sloRule is the rule a metrics outage must trip: half of DefaultMix
// answers 503 while the backend is away, far above its 5% threshold.
const sloRule = "http-5xx-rate"

// SoakConfig parameterises RunSoak. Every duration must be positive.
type SoakConfig struct {
	// Duration of the load phase.
	Duration time.Duration
	// SLOWindow is the HTTP SLO rules' window (see DaemonOptions).
	SLOWindow time.Duration
	// Settle bounds the post-load wait for SLOs to resolve.
	Settle time.Duration
	// Plan is the chaos fault plan fired during the load phase.
	// Default: MetricsOutagePlan over the second quarter of the run.
	Plan *chaos.Plan
}

// MetricsOutagePlan is a hand-written plan with one metrics-outage
// fault covering [at, at+duration) of the run.
func MetricsOutagePlan(at, duration time.Duration) *chaos.Plan {
	return &chaos.Plan{Faults: []chaos.Fault{{
		Kind:     chaos.FaultMetricsOutage,
		At:       chaos.Duration(at),
		Duration: chaos.Duration(duration),
	}}}
}

// RuleTransitions is one rule's observed state-flip counts.
type RuleTransitions struct {
	ToFiring   float64 `json:"to_firing"`
	ToResolved float64 `json:"to_resolved"`
}

// SoakResult is the soak verdict plus everything needed to understand
// it. Failures empty means the soak passed.
type SoakResult struct {
	Report            Report                     `json:"report"`
	Issued            uint64                     `json:"issued"`
	Recorded          uint64                     `json:"recorded"`
	GoroutineBaseline int                        `json:"goroutine_baseline"`
	GoroutineFinal    int                        `json:"goroutine_final"`
	HeapBaseline      uint64                     `json:"heap_baseline_bytes"`
	HeapFinal         uint64                     `json:"heap_final_bytes"`
	Transitions       map[string]RuleTransitions `json:"slo_transitions"`
	FinalAlerts       []telemetry.Alert          `json:"final_alerts"`
	Settle            chaos.Duration             `json:"settle"`
	CloseError        string                     `json:"close_error,omitempty"`
	Failures          []string                   `json:"failures"`
}

// Passed reports whether every exit assertion held.
func (r *SoakResult) Passed() bool { return len(r.Failures) == 0 }

// RunSoak runs the full soak: baseline capture → in-process daemon
// with the chaos plan armed → closed-loop load for Duration →
// post-load settle until SLOs resolve (bounded by Settle) → teardown →
// leak and accounting assertions. It is wall-clock driven; the
// deterministic fake-clock variant lives in the package tests.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Duration <= 0 || cfg.SLOWindow <= 0 || cfg.Settle <= 0 {
		return nil, fmt.Errorf("soak: duration %s, SLO window %s and settle %s must all be > 0",
			cfg.Duration, cfg.SLOWindow, cfg.Settle)
	}
	if cfg.Plan == nil {
		cfg.Plan = MetricsOutagePlan(cfg.Duration/4, cfg.Duration/4)
	}

	sched, err := Generate(ScheduleConfig{
		Mix:         DefaultMix,
		Concurrency: soakConcurrency,
		Duration:    cfg.Duration,
		Seed:        soakSeed,
	})
	if err != nil {
		return nil, err
	}

	res := &SoakResult{Transitions: map[string]RuleTransitions{}, Settle: chaos.Duration(cfg.Settle)}
	runtime.GC()
	res.GoroutineBaseline = runtime.NumGoroutine()
	res.HeapBaseline = heapAlloc()

	d, err := StartDaemon(DaemonOptions{ChaosPlan: cfg.Plan, SLOWindow: cfg.SLOWindow})
	if err != nil {
		return nil, fmt.Errorf("soak: daemon: %w", err)
	}
	scrapeCtx, stopScraper := context.WithCancel(context.Background())
	go d.Scraper.Run(scrapeCtx)

	client := &http.Client{Timeout: 10 * time.Second}
	runner, err := NewRunner(sched, RunnerOptions{BaseURL: d.URL, Client: client})
	if err != nil {
		stopScraper()
		_ = d.Close()
		return nil, err
	}
	res.Report = runner.Run(context.Background())
	res.Issued = runner.Issued()
	res.Recorded = res.Report.Totals.Count

	// Settle: background scrapes keep feeding the SLO evaluator; wait
	// for every rule to leave firing (ok or no_data both count as
	// green — no_data just means the window drained).
	deadline := time.Now().Add(cfg.Settle)
	for {
		alerts := d.SLO.Evaluate()
		firing := 0
		for _, a := range alerts {
			if a.State == telemetry.StateFiring {
				firing++
			}
		}
		res.FinalAlerts = alerts
		if firing == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(scrapeInterval)
	}

	stopScraper()
	for _, r := range d.SLO.Rules() {
		res.Transitions[r.Name] = RuleTransitions{
			ToFiring:   d.Registry.Counter("caladrius_slo_transitions_total", telemetry.Labels{"rule": r.Name, "to": "firing"}).Value(),
			ToResolved: d.Registry.Counter("caladrius_slo_transitions_total", telemetry.Labels{"rule": r.Name, "to": "resolved"}).Value(),
		}
	}
	if err := d.Close(); err != nil {
		res.CloseError = err.Error()
	}
	client.CloseIdleConnections()

	// Goroutine drain: connections and workers unwind asynchronously
	// after Close; poll with GC pressure before declaring a leak.
	res.GoroutineFinal = runtime.NumGoroutine()
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		if res.GoroutineFinal <= res.GoroutineBaseline+goroutineSlack {
			break
		}
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
		res.GoroutineFinal = runtime.NumGoroutine()
	}
	runtime.GC()
	res.HeapFinal = heapAlloc()

	res.Failures = verdict(res, cfg.Plan, DefaultMix)
	return res, nil
}

// verdict is every exit assertion of the soak, as a function of what
// the run observed: the failure messages for res after plan was fired
// at mix, empty when the soak passed.
func verdict(res *SoakResult, plan *chaos.Plan, mix Mix) []string {
	var failures []string
	if res.CloseError != "" {
		failures = append(failures, fmt.Sprintf("daemon close: %s", res.CloseError))
	}
	for _, a := range res.FinalAlerts {
		if a.State == telemetry.StateFiring {
			failures = append(failures, fmt.Sprintf("SLO %q still firing after %s settle", a.Rule, time.Duration(res.Settle)))
		}
	}
	if res.GoroutineFinal > res.GoroutineBaseline+goroutineSlack {
		failures = append(failures, fmt.Sprintf("goroutine leak: baseline %d, final %d (slack %d)",
			res.GoroutineBaseline, res.GoroutineFinal, goroutineSlack))
	}
	if res.HeapFinal > res.HeapBaseline+heapSlackBytes {
		failures = append(failures, fmt.Sprintf("heap growth: baseline %d bytes, final %d bytes",
			res.HeapBaseline, res.HeapFinal))
	}
	if res.Issued != res.Recorded {
		failures = append(failures, fmt.Sprintf("unaccounted responses: issued %d, recorded %d", res.Issued, res.Recorded))
	}
	if res.Report.Totals.Other > 0 {
		failures = append(failures, fmt.Sprintf("%d responses outside 2xx/4xx/5xx/transport classes", res.Report.Totals.Other))
	}
	// A metrics outage under a mix with model operations has to be
	// seen three times over: by the clients as 503s, by the evaluator
	// as the 5xx rule firing, and again as it resolving. A run where
	// any of the three is missing exercised nothing.
	if len(plan.MetricsFaults()) > 0 && mix.Weight(OpPredict)+mix.Weight(OpPlan) > 0 {
		if res.Report.Totals.Unavail503 == 0 {
			failures = append(failures, "chaos plan has metrics faults but no 503s were observed — the fault never bit")
		}
		switch tr := res.Transitions[sloRule]; {
		case tr.ToFiring < 1:
			failures = append(failures, fmt.Sprintf("SLO %q never fired although the chaos plan has metrics faults", sloRule))
		case tr.ToResolved < 1:
			failures = append(failures, fmt.Sprintf("SLO %q fired but never resolved", sloRule))
		}
	}
	return failures
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
