package profiler_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/chaos"
	"caladrius/internal/daemon"
	"caladrius/internal/heron"
	"caladrius/internal/incident"
	"caladrius/internal/instrument"
	"caladrius/internal/profiler"
	"caladrius/internal/telemetry"
)

// The profiler closed loop, end to end over HTTP: a chaos slow fault
// drives the live topology into backpressure, the service's hot code
// path shifts (hotFaultSpin replaces steadyServeSpin), the continuous
// profiler's baseline diff catches the regression, the
// profile-hot-function-regression SLO fires on a scrape and reads
// firing through /api/v1/alerts,
// and the armed flight recorder captures exactly one bundle whose
// profile-diff.json names the regressing function. When the fault
// clears, the diff drops back under the budget and the rule resolves.

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

var spinSink atomic.Uint64

// steadyServeSpin is the healthy serving path's CPU signature.
//
//go:noinline
func steadyServeSpin() {
	var acc uint64 = 1
	for i := 0; i < 1<<14; i++ {
		acc = acc*2654435761 + uint64(i)
	}
	spinSink.Add(acc)
}

// hotFaultSpin is the code path that only burns CPU while the fault's
// backpressure is active — the regression the diff must catch.
//
//go:noinline
func hotFaultSpin() {
	var acc uint64 = 1
	for i := 0; i < 1<<14; i++ {
		acc = acc*6364136223846793005 + uint64(i)
	}
	spinSink.Add(acc)
}

// captureUnderLoad runs one real capture round while fn spins on the
// only P (the container pins GOMAXPROCS=1), so the CPU sampling window
// attributes nearly all its samples to fn.
func captureUnderLoad(t *testing.T, prof *profiler.Profiler, fn func()) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fn()
			}
		}
	}()
	err := prof.CaptureOnce()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

func TestClosedLoopProfileRegression(t *testing.T) {
	const (
		rate  = 20e6
		delta = 0.3
	)

	reg := instrument.NewRegistry()
	sim, err := heron.NewWordCount(heron.WordCountOptions{
		SplitterP:     3,
		CounterP:      4,
		RatePerMinute: rate,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := sim.Substrate()
	// Slow ×0.5 on every splitter instance for minutes [36, 50): the 3
	// splitters' halved service rate sits below the 20M/min offered
	// load, so the fault shows up as sustained backpressure.
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
	if err := sim.Run(35 * time.Minute); err != nil {
		t.Fatal(err)
	}
	clock := &simClock{t: sim.Start().Add(35 * time.Minute)}

	// The shipped daemon's wiring over the live simulation, every clock
	// the simulated one: history store, scraper, regression SLO,
	// profiler, recorder with the diff attachment, API service.
	cfg := daemon.Default()
	cfg.Substrate = sub
	cfg.Registry = reg
	cfg.Now, cfg.Wall = clock.Now, clock.Now
	cfg.LogOutput = io.Discard
	cfg.CalibrationLookback = 30 * time.Minute
	cfg.HistoryRetention = 24 * time.Hour
	cfg.SLORules = telemetry.ProfilerRules(delta)
	cfg.IncidentDir = t.TempDir()
	cfg.IncidentCooldown = 30 * time.Minute
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	prof := d.Profiler
	scraper, rec := d.Scraper, d.Recorder
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	bp := reg.Gauge("caladrius_sim_backpressure_active_instances", instrument.Labels{"topology": "word-count"})
	stepMinute := func() {
		t.Helper()
		if err := sim.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Minute)
	}
	// scrape appends the registry to history and, a second later,
	// scrapes again: each scrape evaluates the SLO (which is what arms
	// the recorder's firing hook) at its own instant, and history
	// ranges are end-exclusive, so it is the second scrape's evaluation
	// that sees the first one's samples.
	scrape := func() {
		scraper.ScrapeOnce(clock.Now())
		clock.Advance(time.Second)
		scraper.ScrapeOnce(clock.Now())
	}
	// alertState reads the rule's state, as the last scrape left it,
	// over HTTP.
	alertState := func(phase string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/v1/alerts")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ar api.AlertsResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		for _, a := range ar.Alerts {
			if a.Rule == "profile-hot-function-regression" {
				return string(a.State)
			}
		}
		t.Fatalf("%s: profile-hot-function-regression not evaluated", phase)
		return ""
	}

	// The container throttles SIGPROF delivery to a few samples per
	// capture, so each epoch accumulates several capture rounds; the
	// diff merges three epochs, nine rounds, to clear the profiler's
	// minimum-sample guard.
	captureEpoch := func(fn func()) {
		for i := 0; i < 3; i++ {
			captureUnderLoad(t, prof, fn)
		}
	}
	// fillDiffSpan captures fn into as many consecutive epochs as the
	// diff merges, so the diff reads fn's windows only.
	fillDiffSpan := func(fn func()) {
		captureEpoch(fn)
		for i := 1; i < prof.Status().DiffWindows; i++ {
			stepMinute()
			captureEpoch(fn)
		}
	}

	// Phase 1 — healthy: two epochs of the steady serving path. The
	// first completed window auto-establishes the baseline; the second
	// shows no regression against it.
	captureEpoch(steadyServeSpin)
	stepMinute()
	if got := bp.Value(); got != 0 {
		t.Fatalf("healthy phase backpressure = %g instances, want 0", got)
	}
	captureEpoch(steadyServeSpin)
	scrape()
	if got := alertState("phase 1"); got != string(telemetry.StateOK) {
		t.Fatalf("phase 1 alert state = %s, want %s", got, telemetry.StateOK)
	}
	rec.Flush()
	if n := len(rec.List()); n != 0 {
		t.Fatalf("phase 1 captured %d bundles", n)
	}

	// Phase 2 — the slow fault bites at minute 36 and queues build
	// until the splitters flag backpressure; the service's fault path
	// starts burning CPU.
	for i := 0; i < 8 && bp.Value() == 0; i++ {
		stepMinute()
	}
	if bp.Value() == 0 {
		t.Fatal("slow fault never drove backpressure")
	}
	fillDiffSpan(hotFaultSpin)
	scrape()
	if got := alertState("phase 2"); got != string(telemetry.StateFiring) {
		t.Fatalf("phase 2 alert state = %s, want %s", got, telemetry.StateFiring)
	}

	// The diff surfaced over HTTP names the regressing function.
	resp, err := http.Get(srv.URL + "/api/v1/profiles/diff?kind=cpu")
	if err != nil {
		t.Fatal(err)
	}
	var dr api.ProfileDiffResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.Diff == nil || len(dr.Diff.Entries) == 0 ||
		!strings.Contains(dr.Diff.Entries[0].Function, "hotFaultSpin") {
		t.Fatalf("HTTP diff top entry = %+v, want hotFaultSpin", dr.Diff)
	}

	// Exactly one bundle, carrying the baseline diff artifact.
	rec.Flush()
	list := rec.List()
	if len(list) != 1 {
		t.Fatalf("bundles after regression fired = %d, want exactly 1", len(list))
	}
	m := list[0]
	if m.Trigger != incident.TriggerSLO || m.Rule != "profile-hot-function-regression" {
		t.Fatalf("manifest = %+v", m)
	}
	hasDiff := false
	for _, a := range m.Artifacts {
		if a.Name == "profile-diff.json" {
			hasDiff = true
		}
	}
	if !hasDiff {
		t.Fatalf("bundle lacks profile-diff.json: %+v (notes %v)", m.Artifacts, m.Notes)
	}
	var art struct {
		Baseline *profiler.BaselineMeta `json:"baseline"`
		Diffs    []*profiler.Diff       `json:"diffs"`
	}
	func() {
		resp, err := http.Get(srv.URL + "/api/v1/incidents/" + m.ID + "/artifacts/profile-diff.json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET profile-diff.json: %s: %s", resp.Status, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(&art); err != nil {
			t.Fatal(err)
		}
	}()
	if art.Baseline == nil {
		t.Fatal("diff artifact has no baseline metadata")
	}
	found := false
	for _, d := range art.Diffs {
		if d.Kind != profiler.KindCPU {
			continue
		}
		if len(d.Entries) > 0 && strings.Contains(d.Entries[0].Function, "hotFaultSpin") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diff artifact does not name hotFaultSpin: %+v", art.Diffs)
	}

	// Still firing on the next evaluation — a state, not a transition:
	// no second bundle.
	scrape()
	if got := alertState("phase 2 again"); got != string(telemetry.StateFiring) {
		t.Fatalf("phase 2 re-evaluation = %s, want still firing", got)
	}
	rec.Flush()
	if n := len(rec.List()); n != 1 {
		t.Fatalf("re-evaluation grew the bundle count to %d", n)
	}

	// Phase 3 — recovery: the fault ends at minute 50, backpressure
	// drains, the hot path goes quiet, and the diff drops back under
	// the budget.
	for i := 0; i < 20 && bp.Value() > 0; i++ {
		stepMinute()
	}
	if got := bp.Value(); got != 0 {
		t.Fatalf("backpressure never drained after the fault: %g instances", got)
	}
	fillDiffSpan(steadyServeSpin)
	scrape()
	if got := alertState("phase 3"); got != string(telemetry.StateOK) {
		t.Fatalf("phase 3 alert state = %s, want %s (resolved)", got, telemetry.StateOK)
	}
	if n := len(rec.List()); n != 1 {
		t.Fatalf("recovery grew the bundle count to %d", n)
	}
}
