// Package soak is the chaos soak behind cmd/caladriussoak: a check,
// not a measurement. It assembles the shipped daemon in-process, drives
// it with one fixed request cycle from a few closed-loop workers while
// a chaos fault plan takes the metrics backend away, and asserts at
// exit that the self-monitoring SLOs fired and resolved, every response
// was accounted for by status class, and teardown returned the process
// to its goroutine and heap baseline. What the service costs per
// request is measured elsewhere, by benchmark/, against a subprocess
// daemon; nothing here times a request.
package soak

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caladrius/internal/api"
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

// Operations the soak issues.
const (
	OpPredict    = "predict"
	OpPlan       = "plan"
	OpQueryRange = "query_range"
	OpAudit      = "audit"
	OpUsage      = "usage"
)

// paths are the routes the operations hit. predict and plan POST an
// empty proposal for the demo topology; the rest are GETs.
var paths = map[string]string{
	OpPredict:    "/api/v1/model/topology/word-count/performance?sync=true",
	OpPlan:       "/api/v1/model/topology/word-count/suggest?sync=true",
	OpQueryRange: "/api/v1/query_range?metric=caladrius_http_requests_total&step=10s&agg=max&merge=sum",
	OpAudit:      "/api/v1/audit?limit=50",
	OpUsage:      "/api/v1/usage",
}

// cycle is the load the soak drives: request i sends cycle[i%10] as
// tenant-(i%4). It is model-heavy with a steady read side, and half of
// it (predict and plan) needs the metrics backend, so a metrics outage
// fails half the traffic.
var cycle = [10]string{
	OpPredict, OpQueryRange, OpPredict, OpAudit, OpPlan,
	OpPredict, OpQueryRange, OpUsage, OpPredict, OpQueryRange,
}

// workers is the closed-loop population: each worker sends the next
// request of the cycle when its previous one completes.
const workers = 4

// sloRule is the rule a metrics outage must trip: half the cycle
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

// count classifies one outcome. status 0 means the request failed at
// the transport layer (no HTTP response).
func (o *OpReport) count(status int) {
	o.Count++
	switch {
	case status == 0:
		o.Transport++
	case status >= 200 && status < 300:
		o.Status2xx++
	case status >= 400 && status < 500:
		o.Status4xx++
		if status == 429 {
			o.Shed429++
		}
	case status >= 500 && status < 600:
		o.Status5xx++
		if status == 503 {
			o.Unavail503++
		}
	default:
		o.Other++
	}
}

// Report is the status-class tally of the load phase.
type Report struct {
	Totals OpReport            `json:"totals"`
	Ops    map[string]OpReport `json:"ops"`
}

// recorder tallies request outcomes by operation and status class.
// Safe for concurrent use.
type recorder struct {
	mu     sync.Mutex
	totals OpReport
	ops    map[string]OpReport
}

// record tallies one outcome of op (status 0: see OpReport.count).
func (r *recorder) record(op string, status int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ops == nil {
		r.ops = map[string]OpReport{}
	}
	st := r.ops[op]
	st.count(status)
	r.ops[op] = st
	r.totals.count(status)
}

// report returns everything recorded so far.
func (r *recorder) report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Report{Totals: r.totals, Ops: maps.Clone(r.ops)}
}

// load sends the cycle to one daemon and tallies what comes back.
type load struct {
	base   string
	client *http.Client
	// now anchors query_range windows on the clock the daemon's
	// scraper stamps history with.
	now func() time.Time

	next   atomic.Uint64
	issued atomic.Uint64
	rec    recorder
}

// issue sends request i of the cycle and tallies its outcome. It
// returns the response, its body drained and closed, or nil when no
// response came back.
func (l *load) issue(i uint64) *http.Response {
	op := cycle[i%uint64(len(cycle))]
	method, url, body := http.MethodGet, l.base+paths[op], io.Reader(nil)
	switch op {
	case OpPredict, OpPlan:
		method, body = http.MethodPost, strings.NewReader(`{}`)
	case OpQueryRange:
		// Window the last five minutes so the query lands on freshly
		// scraped self-monitoring history.
		now := l.now()
		url += "&start=" + strconv.FormatInt(now.Add(-5*time.Minute).Unix(), 10) +
			"&end=" + strconv.FormatInt(now.Add(time.Minute).Unix(), 10)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		l.rec.record(op, 0)
		return nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(api.TenantHeader, "tenant-"+strconv.FormatUint(i%4, 10))
	l.issued.Add(1)
	resp, err := l.client.Do(req)
	if err != nil {
		l.rec.record(op, 0)
		return nil
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	l.rec.record(op, resp.StatusCode)
	return resp
}

// run sends the cycle from the worker population until d has elapsed
// on l's clock. In-flight requests complete and are tallied.
func (l *load) run(d time.Duration) {
	deadline := l.now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l.now().Before(deadline) {
				l.issue(l.next.Add(1) - 1)
			}
		}()
	}
	wg.Wait()
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
// with the chaos plan armed → the cycle for Duration →
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
	if sim := cfg.Plan.SimFaults(); len(sim) > 0 {
		return nil, fmt.Errorf("soak: the chaos plan's simulator faults %v cannot fire: "+
			"the soak's daemon serves a pre-simulated history and has no fault injector", sim)
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
	go d.Scraper.Run(scrapeCtx, scrapeInterval)

	client := &http.Client{Timeout: 10 * time.Second}
	l := &load{base: d.URL, client: client, now: time.Now}
	l.run(cfg.Duration)
	res.Report = l.rec.report()
	res.Issued = l.issued.Load()
	res.Recorded = res.Report.Totals.Count

	// Settle: background scrapes keep feeding the SLO evaluator; wait
	// for every rule to leave firing (ok or no_data both count as
	// green — no_data just means the window drained).
	deadline := time.Now().Add(cfg.Settle)
	for {
		alerts := d.SLO.Alerts()
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

	res.Failures = verdict(res, cfg.Plan)
	return res, nil
}

// verdict is every exit assertion of the soak, as a function of what
// the run observed: the failure messages for res after plan was fired,
// empty (not nil: the verdict JSON lists them) when the soak passed.
func verdict(res *SoakResult, plan *chaos.Plan) []string {
	failures := []string{}
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
	// A metrics outage has to be seen three times over: by the clients
	// as 503s, by the evaluator as the 5xx rule firing, and again as it
	// resolving. A run where any of the three is missing exercised
	// nothing.
	if len(plan.MetricsFaults()) > 0 {
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
