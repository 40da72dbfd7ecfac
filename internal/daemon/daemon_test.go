package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/audit"
	"caladrius/internal/heron"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
	"caladrius/internal/workload"
)

// testConfig is Default shrunk to a 10-minute saturating demo history,
// quiet, with the background loops parked (an hour between ticks) so a
// test sees only the scrapes and resolves it asks for.
func testConfig() Config {
	cfg := Default()
	cfg.Rate = 45e6
	cfg.WarmMinutes = 10
	cfg.LogOutput = io.Discard
	cfg.ScrapeInterval = time.Hour
	cfg.AuditResolveInterval = time.Hour
	cfg.ProfileInterval = time.Hour
	return cfg
}

// freeAddr asks the kernel for an unused loopback address.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// goroutinesSettleTo waits for the goroutine count to drop back to
// want: connection and server goroutines unwind just after Close.
func goroutinesSettleTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines = %d, want ≤ %d (baseline)\n%s", got, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const predictPath = "/api/v1/model/topology/word-count/performance?sync=true"

// TestRunCloseRestore is the lifecycle run() could never be tested for:
// Run serves a prediction and the debug surface, shutdown stops both
// listeners and snapshots the history and the ledger, a second daemon
// restores exactly what the first one saved, and nothing either one
// started outlives it.
func TestRunCloseRestore(t *testing.T) {
	t.Cleanup(func() {
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	})
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	runtime.GC()
	baseline := runtime.NumGoroutine()

	dir := t.TempDir()
	cfg := testConfig()
	cfg.APIAddr, cfg.DebugAddr = freeAddr(t), freeAddr(t)
	cfg.HistoryFile = filepath.Join(dir, "history.json")
	cfg.AuditFile = filepath.Join(dir, "audit.json")
	cfg.IncidentDir = filepath.Join(dir, "incidents")
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- d.Run(ctx) }()

	status := func(method, url string) int {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for deadline := time.Now().Add(10 * time.Second); status("GET", "http://"+cfg.APIAddr+"/api/v1/health") != http.StatusOK; {
		select {
		case err := <-ran:
			t.Fatalf("Run returned during boot: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := status("POST", "http://"+cfg.APIAddr+predictPath); got != http.StatusOK {
		t.Fatalf("predict = %d", got)
	}
	if got := status("GET", "http://"+cfg.DebugAddr+"/debug/vars"); got != http.StatusOK {
		t.Fatalf("debug listener = %d", got)
	}

	cancel()
	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close after Run: %v", err)
	}
	for _, addr := range []string{cfg.APIAddr, cfg.DebugAddr} {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepting after Close", addr)
		}
	}
	points, records := d.History.TotalPoints(), d.Ledger.Len()
	if points == 0 || records != 1 {
		t.Fatalf("first life ended with %d history points, %d audit records; want > 0 and 1", points, records)
	}
	goroutinesSettleTo(t, baseline)

	// Second life: the same files, restored before anything is served.
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.History.TotalPoints(); got != points {
		t.Errorf("restored history points = %d, want %d", got, points)
	}
	if got := d2.Ledger.Len(); got != records {
		t.Errorf("restored audit records = %d, want %d", got, records)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	goroutinesSettleTo(t, baseline)
}

// TestCloseAfterFailure: Close is safe on the nil daemon a failed New
// returns and after a Run that could not bind, and a failed Run leaves
// no goroutine behind.
func TestCloseAfterFailure(t *testing.T) {
	bad := testConfig()
	bad.SchedQueueDepth = 0
	d, err := New(bad)
	if err == nil || !strings.Contains(err.Error(), "queue depth") {
		t.Fatalf("New with queue depth 0: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close on failed New: %v", err)
	}

	runtime.GC()
	baseline := runtime.NumGoroutine()
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := testConfig()
	cfg.APIAddr = taken.Addr().String()
	if d, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err == nil {
		t.Fatal("Run bound an address that was taken")
	}
	for i := 0; i < 2; i++ {
		if err := d.Close(); err != nil {
			t.Fatalf("Close #%d after failed Run: %v", i+1, err)
		}
	}
	goroutinesSettleTo(t, baseline)
}

// TestNewValidatesEverySetting: the settings only flags reach are held
// to their bounds for in-process callers too — New is where a Config
// that never saw cmd/caladrius is checked. The always-on subsystems have
// no 0 that switches them off, and no 0 stands for a default.
func TestNewValidatesEverySetting(t *testing.T) {
	for name, breakIt := range map[string]func(*Config){
		"-scrape-interval":   func(c *Config) { c.ScrapeInterval = -time.Second },
		"-history-retention": func(c *Config) { c.HistoryRetention = -5 * time.Second },
		"-incident-cooldown": func(c *Config) { c.IncidentCooldown = -time.Second },
		"-splitter":          func(c *Config) { c.SplitterP = 0 },
		"-rate":              func(c *Config) { c.Rate = -5 },
	} {
		cfg := testConfig()
		breakIt(&cfg)
		d, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), name+" is") {
			d.Close()
			t.Errorf("New with a bad %s: error %v, want one naming the flag", name, err)
		}
	}
	for name, zero := range map[string]func(*Config){
		"-scrape-interval is 0s":        func(c *Config) { c.ScrapeInterval = 0 },
		"-audit-resolve-interval is 0s": func(c *Config) { c.AuditResolveInterval = 0 },
		"usage.topk (-usage-topk) is 0": func(c *Config) { c.UsageTopK = 0 },
		"-incident-cooldown is 0s":      func(c *Config) { c.IncidentCooldown = 0 },
	} {
		cfg := testConfig()
		zero(&cfg)
		d, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), name+", want at least") {
			d.Close()
			t.Errorf("New: error %v, want %q refused with its minimum", err, name)
		}
	}
	// A running profiler's interval has to fit its CPU capture.
	cfg := testConfig()
	cfg.ProfileInterval = 100 * time.Millisecond
	if d, err := New(cfg); err == nil || !strings.Contains(err.Error(), "-profile-interval) is 100ms, want 0 or longer") {
		d.Close()
		t.Errorf("New with a 100ms profile interval: error %v, want one naming -profile-interval", err)
	}
}

// TestDaemonShape: a daemon has one shape. Whatever the two remaining
// off-switches say, every component but the recorder and the profiler
// is there, the SLO rule set is composed from them, and the surfaces
// that used to be conditional answer.
func TestDaemonShape(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate             func(*Config)
		recorder, profiler bool
	}{
		"default":              {func(*Config) {}, false, true},
		"-profile-interval 0":  {func(c *Config) { c.ProfileInterval = 0 }, false, false},
		"-incident-dir":        {func(c *Config) { c.IncidentDir = t.TempDir() }, true, true},
		"both switches thrown": {func(c *Config) { c.ProfileInterval, c.IncidentDir = 0, t.TempDir() }, true, false},
	} {
		cfg := Default()
		cfg.WarmMinutes, cfg.LogOutput = 10, io.Discard
		tc.mutate(&cfg)
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v := reflect.ValueOf(d).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			want := true
			switch f.Name {
			case "Recorder":
				want = tc.recorder
			case "Profiler":
				want = tc.profiler
			}
			if got := !v.Field(i).IsNil(); got != want {
				t.Errorf("%s: Daemon.%s set = %v, want %v", name, f.Name, got, want)
			}
		}
		rules := map[string]bool{}
		for _, r := range d.SLO.Rules() {
			rules[r.Name] = true
		}
		for rule, want := range map[string]bool{
			"http-p95-latency":                true,
			"model-accuracy-drift":            true,
			"model-stale-calibration":         true,
			"profile-hot-function-regression": tc.profiler,
		} {
			if rules[rule] != want {
				t.Errorf("%s: SLO rule %s present = %v, want %v", name, rule, rules[rule], want)
			}
		}
		for _, path := range []string{"/api/v1/query_range?metric=caladrius_go_goroutines&window=1m&step=5s", "/api/v1/alerts", "/api/v1/audit", "/api/v1/usage"} {
			rec := httptest.NewRecorder()
			d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%s: GET %s = %d, want 200 (%s)", name, path, rec.Code, rec.Body)
			}
		}
		if err := d.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// TestEveryRunMeterMoves: one tenant's synchronous prediction, plan and
// forced calibration move every usage total the accountant keeps but
// Errors, so a dimension that no model run can move fails here.
func TestEveryRunMeterMoves(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, path := range []string{
		predictPath,
		"/api/v1/model/topology/word-count/suggest?sync=true",
		"/api/v1/model/topology/word-count/calibrate?sync=true",
	} {
		req := httptest.NewRequest("POST", path, strings.NewReader("{}"))
		req.Header.Set(api.TenantHeader, "team-a")
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s = %d, want 200 (%s)", path, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/usage", nil))
	var resp api.UsageResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("usage: %v (%s)", err, rec.Body)
	}
	var tot *usage.Totals
	for i := range resp.Top {
		if p := resp.Top[i]; p.Tenant == "team-a" && p.Topology == "word-count" {
			tot = &resp.Top[i].Totals
		}
	}
	if tot == nil {
		t.Fatalf("no team-a/word-count principal in %+v", resp.Top)
	}
	v := reflect.ValueOf(*tot)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch {
		case name == "Errors":
			continue
		case name == "CPUNanos" && runtime.GOOS != "linux":
			continue // the portable sampler reads no thread clock
		}
		if v.Field(i).Uint() == 0 {
			t.Errorf("Totals.%s = 0 after three model runs: no run moves it (%+v)", name, *tot)
		}
	}
}

// TestSnapshotSubstrateServesSameSurface: a daemon booted from a
// heronsim metrics snapshot answers every mount the simulating daemon
// does, with the same statuses.
func TestSnapshotSubstrateServesSameSurface(t *testing.T) {
	simulated := testConfig()
	snapshot := testConfig()
	snapshot.MetricsFile = saveDemoHistory(t, simulated)

	probes := []struct {
		method, path string
		want         int
	}{
		{"GET", "/api/v1/health", http.StatusOK},
		{"POST", predictPath, http.StatusOK},
		{"GET", "/api/v1/model/topology/word-count/model", http.StatusOK},
		{"GET", "/api/v1/sched", http.StatusOK},
		{"GET", "/api/v1/usage", http.StatusOK},
		{"GET", "/api/v1/alerts", http.StatusOK},
		{"GET", "/api/v1/audit", http.StatusOK},
		{"GET", "/api/v1/profiles", http.StatusOK},
		{"GET", "/api/v1/query_range?metric=caladrius_http_requests_total&window=1m&step=5s", http.StatusOK},
		{"GET", "/api/v1/incidents", http.StatusNotFound}, // no -incident-dir
		{"GET", "/tracker/topologies/word-count", http.StatusOK},
		{"GET", "/metrics", http.StatusOK},
		{"GET", "/debug/vars", http.StatusNotFound}, // debug listener only
	}
	for name, cfg := range map[string]Config{"simulated": simulated, "snapshot": snapshot} {
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range probes {
			rec := httptest.NewRecorder()
			d.Handler().ServeHTTP(rec, httptest.NewRequest(p.method, p.path, strings.NewReader("{}")))
			if rec.Code != p.want {
				t.Errorf("%s: %s %s = %d, want %d (%s)", name, p.method, p.path, rec.Code, p.want, rec.Body)
			}
		}
		if err := d.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// saveDemoHistory writes the demo history cfg would simulate to a
// metrics snapshot file, as `heronsim -save` does, and returns its path.
func saveDemoHistory(t *testing.T, cfg Config) string {
	t.Helper()
	dep, err := metrics.DeployWordCount(heron.WordCountOptions{
		SplitterP: cfg.SplitterP,
		CounterP:  cfg.CounterP,
		Schedule:  workload.ConstantRate(cfg.Rate / 60),
	}, 0, cfg.WarmMinutes)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := dep.DB.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotCarriesItsPlan: a snapshot saved at splitter 2 / counter
// 6 and served with the default -splitter/-counter (3 / 4) registers
// its own parallelisms, and answers the splitter-4 what-if as a daemon
// simulating the same history with matching flags does: 4 × 10.8 M =
// 43.2 M, not the 28.8 M of a per-instance SP calibrated over three
// splitters where two ran.
func TestSnapshotCarriesItsPlan(t *testing.T) {
	matching := testConfig()
	matching.SplitterP, matching.CounterP = 2, 6
	snapshot := testConfig()
	snapshot.MetricsFile = saveDemoHistory(t, matching)

	splitter4 := func(name string, cfg Config) float64 {
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer d.Close()
		info, err := d.Tracker.Get("word-count")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for comp, want := range map[string]int{"spout": 8, "splitter": 2, "counter": 6} {
			if got := info.Topology.Component(comp).Parallelism; got != want {
				t.Errorf("%s: registered %s parallelism %d, want %d", name, comp, got, want)
			}
		}
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("POST", predictPath, strings.NewReader(`{"parallelism": {"splitter": 4}}`)))
		var resp api.PerformanceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: predict = %d, %v (%s)", name, rec.Code, err, rec.Body)
		}
		return resp.Prediction.SaturationSource
	}
	want := splitter4("matching flags", matching)
	got := splitter4("snapshot", snapshot)
	if got != want || math.Abs(got-43.2e6) > 0.02*43.2e6 {
		t.Errorf("splitter-4 saturation from the snapshot = %.4g, want %.4g as with matching flags (≈43.2 M)", got, want)
	}
}

// TestHistoryFileContract pins what boot does with -history-file: a
// missing file is a first boot and starts empty, a file cut short (a
// kill mid-write that dodged the tmp+rename) refuses to boot and says
// why, and what Close saves the next New serves back unchanged.
func TestHistoryFileContract(t *testing.T) {
	cfg := testConfig()
	cfg.HistoryFile = filepath.Join(t.TempDir(), "history.tsdb")
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New with a missing history file: %v", err)
	}
	if got := d.History.TotalPoints(); got != 0 {
		t.Fatalf("first boot starts with %d history points, want 0", got)
	}

	// Three scrapes a minute back, so the range asked for below holds
	// them and not the final scrape Close stamps at the wall clock.
	at := time.Now().Add(-time.Minute).Truncate(time.Second)
	for i := 0; i < 3; i++ {
		d.Scraper.ScrapeOnce(at.Add(time.Duration(i) * 5 * time.Second))
	}
	panel := "/api/v1/query_range?metric=caladrius_go_goroutines&agg=max&merge=max&step=5s" +
		"&start=" + strconv.FormatInt(at.Unix(), 10) + "&end=" + strconv.FormatInt(at.Unix()+30, 10)
	queryRange := func(d *Daemon) string {
		t.Helper()
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", panel, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("query_range = %d (%s)", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	before := queryRange(d)
	if strings.Count(before, `"t"`) != 3 {
		t.Fatalf("query_range before Close does not hold the 3 scrapes: %s", before)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	points := d.History.TotalPoints()

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("New over the file Close wrote: %v", err)
	}
	if got := d2.History.TotalPoints(); got != points {
		t.Errorf("restored history points = %d, want %d", got, points)
	}
	if after := queryRange(d2); after != before {
		t.Errorf("query_range after restore = %s, want %s", after, before)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	saved, err := os.ReadFile(cfg.HistoryFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.HistoryFile, saved[:len(saved)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	d3, err := New(cfg)
	if err == nil || !strings.HasPrefix(err.Error(), "load history: ") || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("New over a truncated history file: err = %v, want load history: … unexpected EOF", err)
	}
	if err := d3.Close(); err != nil {
		t.Errorf("Close on failed New: %v", err)
	}
}

// TestOneWriterPerHistorySeries: over a minute at the shipped cadences
// — a scrape every 5s, a resolver pass every 15s, the pass first when
// both fall on one instant — the scraper is the only writer of the
// ledger's gauge series, one point per scrape and never two at one
// timestamp, and the resolver the only writer of caladrius_model_ape,
// one point per graded record.
func TestOneWriterPerHistorySeries(t *testing.T) {
	start := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	var elapsed atomic.Int64
	cfg := testConfig()
	cfg.Wall = func() time.Time { return start.Add(time.Duration(elapsed.Load())) }
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("POST", predictPath, strings.NewReader("{}")))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %d = %d (%s)", i, rec.Code, rec.Body)
		}
	}

	shipped := Default()
	scrapes := 0
	for at := time.Duration(0); at <= time.Minute; at += shipped.ScrapeInterval {
		elapsed.Store(int64(at))
		if at%shipped.AuditResolveInterval == 0 {
			d.Ledger.ResolveOnce(d.now())
		}
		d.Scraper.ScrapeOnce(d.wall())
		scrapes++
	}

	from, to := start.Add(-time.Minute), start.Add(2*time.Minute)
	for _, metric := range []string{audit.MetricMAPE, audit.MetricSignedError, audit.MetricPrecision, audit.MetricRecall, audit.MetricCalibrationAge} {
		series, err := d.History.Query(metric, nil, from, to)
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		for _, s := range series {
			seen := map[time.Time]bool{}
			for _, p := range s.Points {
				if seen[p.T] {
					t.Errorf("%s%v: two points at %s", metric, s.Labels, p.T)
				}
				seen[p.T] = true
			}
			if len(s.Points) != scrapes {
				t.Errorf("%s%v: %d points, want one per scrape (%d)", metric, s.Labels, len(s.Points), scrapes)
			}
		}
	}

	graded := 0
	for _, rec := range d.Ledger.List(audit.Filter{}) {
		if rec.Errors != nil {
			graded++
		}
	}
	apes := 0
	if series, err := d.History.Query(audit.MetricAPE, nil, from, to); err == nil {
		for _, s := range series {
			apes += len(s.Points)
		}
	}
	if graded == 0 || apes != graded {
		t.Errorf("%s: %d points, want one per graded record (%d)", audit.MetricAPE, apes, graded)
	}
}

// TestAlertReadsAdvanceNothing: only the scrape moves alert state. A
// GET /api/v1/alerts between scrapes reads the last evaluation — however
// far the clock has moved and however often clients poll, it flips no
// rule, bumps no transition counter and captures no incident bundle.
func TestAlertReadsAdvanceNothing(t *testing.T) {
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	var wall atomic.Int64
	wall.Store(t0.UnixNano())
	cfg := testConfig()
	cfg.Wall = func() time.Time { return time.Unix(0, wall.Load()).UTC() }
	cfg.IncidentDir = t.TempDir()
	cfg.SLORules = []telemetry.Rule{
		// Any request in the window trips it.
		{Name: "traffic-seen", Metric: "caladrius_http_requests_total", Agg: tsdb.AggMax, Window: time.Minute, Threshold: 0.5},
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	state := func() telemetry.AlertState {
		t.Helper()
		var resp struct{ Alerts []telemetry.Alert }
		if err := json.Unmarshal([]byte(get("/api/v1/alerts")), &resp); err != nil || len(resp.Alerts) != 1 {
			t.Fatalf("alerts: %v, %+v", err, resp)
		}
		return resp.Alerts[0].State
	}
	transitions := func(to string) float64 {
		return d.Registry.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "traffic-seen", "to": to}).Value()
	}

	if got := state(); got != telemetry.StateNoData {
		t.Errorf("before any scrape: state %s, want no_data", got)
	}
	get("/api/v1/health")
	// A scrape evaluates at its own instant, which its samples' window
	// excludes: the rule still has no data.
	d.Scraper.ScrapeOnce(t0)
	wall.Store(t0.Add(10 * time.Second).UnixNano())
	for i := 0; i < 3; i++ {
		if got := state(); got != telemetry.StateNoData {
			t.Errorf("read %d between scrapes: state %s, want the scrape's no_data", i+1, got)
		}
	}
	d.Recorder.Flush()
	if f, r, n := transitions("firing"), transitions("resolved"), len(d.Recorder.List()); f != 0 || r != 0 || n != 0 {
		t.Errorf("after reads between scrapes: %g to firing, %g to resolved, %d bundles; want none", f, r, n)
	}

	// The next scrape sees the first one's samples and fires the rule.
	d.Scraper.ScrapeOnce(t0.Add(10 * time.Second))
	if got := state(); got != telemetry.StateFiring {
		t.Errorf("after the second scrape: state %s, want firing", got)
	}
	d.Recorder.Flush()
	if f, n := transitions("firing"), len(d.Recorder.List()); f != 1 || n != 1 {
		t.Errorf("after the second scrape: %g to firing, %d bundles; want 1 and 1", f, n)
	}
}
