package incident_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"caladrius/internal/chaos"
	"caladrius/internal/daemon"
	"caladrius/internal/heron"
	"caladrius/internal/incident"
	"caladrius/internal/telemetry"
)

// The incident closed loop, end to end over HTTP: a chaos slow fault
// degrades the live topology away from its healthy calibration, the
// audited predictions drift past the SLO budget, the drift rule fires,
// and the armed flight recorder captures exactly one bundle — carrying
// all five profile types, the access-log and span evidence of the
// requests that drove it (joined on middleware trace ids), and the
// firing rule's metric window.

// simClock is a mutex-guarded simulated clock shared by every
// component and the recorder's capture worker.
type simClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *simClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestClosedLoopIncidentCapture(t *testing.T) {
	const (
		rate      = 20e6
		rollingN  = 8
		driftMAPE = 0.08
	)

	sim, err := heron.NewWordCount(heron.WordCountOptions{
		SplitterP:     3,
		CounterP:      4,
		RatePerMinute: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := sim.Substrate()
	// Slow ×0.5 on every splitter instance for minutes [36, 50) — the
	// same fault the chaos closed loop uses to force model drift.
	inj, err := chaos.NewInjector(&chaos.Plan{Faults: []chaos.Fault{{
		Kind:      chaos.FaultSlow,
		At:        chaos.Duration(36 * time.Minute),
		Duration:  chaos.Duration(14 * time.Minute),
		Component: "splitter",
		Instance:  chaos.AllInstances,
		Factor:    0.5,
	}}}, sub.Topology, sub.Plan)
	if err != nil {
		t.Fatal(err)
	}
	sim.WithFaultInjector(inj)
	if err := sim.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	clock := &simClock{t: sim.Start().Add(30 * time.Minute)}

	// The shipped daemon's wiring over the live simulation, every clock
	// the simulated one: registry, log ring, tracer, history store,
	// audit ledger, drift SLO, recorder, API service.
	cfg := daemon.Default()
	cfg.Substrate = sub
	cfg.Now, cfg.Wall = clock.Now, clock.Now
	cfg.LogOutput = io.Discard
	cfg.CalibrationLookback = 30 * time.Minute
	cfg.CalCacheTTL = 0 // the healthy calibration must go stale, not expire
	cfg.HistoryRetention = 24 * time.Hour
	cfg.ProfileInterval = 0
	cfg.SLORules = telemetry.ModelAccuracyRules(driftMAPE, 24*time.Hour)
	cfg.IncidentDir = t.TempDir()
	cfg.IncidentCooldown = 10 * time.Minute
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	reg, led, slo, rec := d.Registry, d.Ledger, d.SLO, d.Recorder
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	post := func(path string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s: %s", path, resp.Status, body)
		}
	}
	// predictN advances the simulation minute by minute, requesting a
	// graded performance prediction over HTTP each step — every request
	// leaves an access-log record in the ring and a span in the tracer,
	// sharing its middleware trace id.
	predictN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := sim.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			clock.Advance(time.Minute)
			post("/api/v1/model/topology/word-count/performance?sync=true")
		}
	}
	evaluate := func(phase string, want telemetry.AlertState) {
		t.Helper()
		for _, a := range slo.Evaluate() {
			if a.Rule == "model-accuracy-drift" {
				if a.State != want {
					t.Fatalf("%s: drift state = %s, want %s", phase, a.State, want)
				}
				return
			}
		}
		t.Fatalf("%s: drift rule not evaluated", phase)
	}

	// resolve runs a resolver pass and then the scrape that carries its
	// gauges into the history the rule reads.
	resolve := func() {
		led.ResolveOnce(clock.Now())
		d.Scraper.ScrapeOnce(clock.Now())
	}

	post("/api/v1/model/topology/word-count/calibrate?sync=true")

	// Phase 1 — healthy: predictions track reality, no capture.
	predictN(6)
	resolve()
	clock.Advance(time.Second) // history ranges are end-exclusive
	evaluate("phase 1", telemetry.StateOK)
	rec.Flush()
	if n := len(rec.List()); n != 0 {
		t.Fatalf("phase 1 captured %d bundles", n)
	}

	// Phase 2 — the slow fault bites at minute 36: the stale model's
	// predictions drift past the budget and the rule fires.
	if err := sim.Run(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6*time.Minute - time.Second)
	predictN(rollingN)
	resolve()
	clock.Advance(time.Second)
	evaluate("phase 2", telemetry.StateFiring)
	rec.Flush()

	list := rec.List()
	if len(list) != 1 {
		t.Fatalf("bundles after drift fired = %d, want exactly 1", len(list))
	}
	m := list[0]
	if m.Trigger != incident.TriggerSLO || m.Rule != "model-accuracy-drift" {
		t.Fatalf("manifest = %+v", m)
	}

	// Still firing on the next evaluation — no transition, no second
	// bundle; and a manual re-fire inside the cooldown is suppressed.
	evaluate("phase 2 again", telemetry.StateFiring)
	rec.FiringHook()(telemetry.ModelAccuracyRules(driftMAPE, 24*time.Hour)[0],
		telemetry.Alert{Rule: "model-accuracy-drift"})
	rec.Flush()
	if n := len(rec.List()); n != 1 {
		t.Fatalf("cooldown not respected: %d bundles", n)
	}
	if got := reg.Counter("caladrius_incident_suppressed_total", nil).Value(); got != 1 {
		t.Fatalf("suppressed = %g, want 1", got)
	}

	// The bundle carries all five profile types plus logs, spans and
	// the firing rule's metric window.
	artifacts := map[string]bool{}
	for _, a := range m.Artifacts {
		artifacts[a.Name] = true
	}
	for _, name := range []string{
		incident.ArtifactCPU, incident.ArtifactHeap, incident.ArtifactGoroutine,
		incident.ArtifactMutex, incident.ArtifactBlock,
		incident.ArtifactLogs, incident.ArtifactSpans, incident.ArtifactMetrics,
	} {
		if !artifacts[name] {
			t.Errorf("bundle missing %s (notes: %v)", name, m.Notes)
		}
	}
	if m.LogRecords == 0 || m.SpanTraces == 0 {
		t.Fatalf("log records = %d, span traces = %d", m.LogRecords, m.SpanTraces)
	}
	if len(m.JoinedTraceIDs) == 0 {
		t.Fatalf("no joined trace ids: logs and spans do not share a request id (trace ids %v)", m.TraceIDs)
	}
	if m.Metrics == nil || m.Metrics.Metric != "caladrius_model_mape" || m.Metrics.Points == 0 {
		t.Fatalf("metrics window = %+v", m.Metrics)
	}

	// The joined ids really do appear in both captured artifacts.
	var logs []telemetry.LogRecord
	readArtifact(t, srv.URL, m.ID, incident.ArtifactLogs, &logs)
	var spans []telemetry.TraceJSON
	readArtifact(t, srv.URL, m.ID, incident.ArtifactSpans, &spans)
	joined := m.JoinedTraceIDs[0]
	foundLog, foundSpan := false, false
	for _, lr := range logs {
		if lr.Trace == joined {
			foundLog = true
		}
	}
	for _, tj := range spans {
		if tj.TraceID == joined {
			foundSpan = true
		}
	}
	if !foundLog || !foundSpan {
		t.Fatalf("joined id %q missing from artifacts (log %v, span %v)", joined, foundLog, foundSpan)
	}

	// And the API surface serves the bundle.
	resp, err := http.Get(srv.URL + "/api/v1/incidents")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if listing.Count != 1 {
		t.Fatalf("GET /api/v1/incidents count = %d", listing.Count)
	}
}

// readArtifact downloads one artifact through the API and decodes it.
func readArtifact(t *testing.T, base, id, name string, v any) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/incidents/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact %s: %s", name, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
}
