package api

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caladrius/internal/audit"
	"caladrius/internal/config"
	"caladrius/internal/core"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/sched"
	"caladrius/internal/telemetry"
	"caladrius/internal/tracker"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
	"caladrius/internal/workload"
)

// deployment is the simulated word-count deployment every api test
// serves: 40 minutes of history covering both regimes (linear, then
// saturated), registered with a tracker and read through a TSDB
// provider, with "now" frozen at the end of the simulated window.
type deployment struct {
	tr       *tracker.Tracker
	provider *metrics.TSDBProvider
	cfg      config.Config
	asOf     time.Time
}

func newDeployment(t *testing.T) deployment {
	t.Helper()
	const warm = 40 * time.Minute
	return simulate(t, heron.WordCountOptions{
		SplitterP: 3, CounterP: 8,
		Schedule: workload.StepRate(20e6/60, 45e6/60, warm/2),
	}, warm)
}

// simulate runs the word-count topology for warm and registers the
// result as a deployment.
func simulate(t *testing.T, opts heron.WordCountOptions, warm time.Duration) deployment {
	t.Helper()
	d, err := metrics.DeployWordCount(opts, 0, int(warm/time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	tr := tracker.New(func() time.Time { return d.AsOf })
	if err := tr.Register(d.Topology, d.Plan); err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.CalibrationLookback = warm
	cfg.CalibrationWarmup = 3
	return deployment{tr: tr, provider: d.Provider, cfg: cfg, asOf: d.AsOf}
}

// withRequired fills each of opts' required components (and the clock)
// left nil with a default one over provider — the scheduler closed with
// the test — built on whichever of Telemetry and History opts does give.
func withRequired(t *testing.T, provider metrics.Provider, now time.Time, opts Options) Options {
	t.Helper()
	cfg := config.Default()
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Now == nil {
		opts.Now = func() time.Time { return now }
	}
	if opts.Scheduler == nil {
		opts.Scheduler = sched.New(sched.Options{QueueDepth: cfg.SchedQueueDepth})
		t.Cleanup(opts.Scheduler.Close)
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	if opts.History == nil {
		opts.History = tsdb.New(0)
	}
	var err error
	if opts.SLO == nil {
		if opts.SLO, err = telemetry.NewSLO(opts.History, opts.Telemetry, nil, telemetry.DefaultSLORules()); err != nil {
			t.Fatal(err)
		}
	}
	if opts.Audit == nil {
		if opts.Audit, err = audit.NewLedger(audit.Options{Provider: provider, History: opts.History, Registry: opts.Telemetry,
			Now: opts.Now, SeriesNow: opts.Now, MetricsWindow: cfg.MetricsWindow}); err != nil {
			t.Fatal(err)
		}
	}
	if opts.Usage == nil {
		opts.Usage = usage.New(usage.Options{Capacity: cfg.UsageTopK, Window: cfg.UsageWindow, Registry: opts.Telemetry})
	}
	return opts
}

// serve builds a service over the deployment and an HTTP server in
// front of it, on the deployment's frozen clock unless opts has its own.
func (d deployment) serve(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	opts = withRequired(t, d.provider, d.asOf, opts)
	svc, err := NewService(d.cfg, d.tr, d.provider, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

// testEnv serves the deployment with default options, returning the
// service, its server and the frozen clock's time.
func testEnv(t *testing.T) (*Service, *httptest.Server, time.Time) {
	return testEnvWith(t, Options{})
}

// testEnvWith is testEnv with explicit service options.
func testEnvWith(t *testing.T, opts Options) (*Service, *httptest.Server, time.Time) {
	t.Helper()
	d := newDeployment(t)
	svc, srv := d.serve(t, opts)
	return svc, srv, d.asOf
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response, wantStatus int) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != wantStatus {
		var raw map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&raw)
		t.Fatalf("status = %d, want %d (body %v)", resp.StatusCode, wantStatus, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHealthAndModelList(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp, err := http.Get(srv.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[map[string]any](t, resp, http.StatusOK)
	if h["status"] != "ok" {
		t.Errorf("health = %v", h)
	}
	resp2, err := http.Get(srv.URL + "/api/v1/models/traffic")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[map[string][]string](t, resp2, http.StatusOK)
	if len(m["models"]) < 2 {
		t.Errorf("models = %v", m)
	}
}

func TestPerformanceSync(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{
		Parallelism:   map[string]int{"splitter": 4},
		SourceRateTPM: 30e6,
	})
	pr := decode[PerformanceResponse](t, resp, http.StatusOK)
	if pr.Topology != "word-count" || pr.EvaluatedRateTPM != 30e6 {
		t.Errorf("response = %+v", pr)
	}
	if len(pr.Prediction.Paths) != 1 {
		t.Fatalf("paths = %d", len(pr.Prediction.Paths))
	}
	// Splitter scaled to 4 → ~43 M/min saturation; 30 M/min is safe.
	if pr.Prediction.Risk != core.RiskLow {
		t.Errorf("risk = %v (t'0 = %g)", pr.Prediction.Risk, pr.Prediction.SaturationSource)
	}
	// The same rate at the current parallelism (3) is high risk.
	resp2 := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{
		SourceRateTPM: 33e6,
	})
	pr2 := decode[PerformanceResponse](t, resp2, http.StatusOK)
	if pr2.Prediction.Risk != core.RiskHigh {
		t.Errorf("p=3 at 33M risk = %v (t'0 = %g)", pr2.Prediction.Risk, pr2.Prediction.SaturationSource)
	}
}

func TestPerformanceUsesLatestRateWhenUnspecified(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{})
	pr := decode[PerformanceResponse](t, resp, http.StatusOK)
	// Latest observed offered rate is the saturated-phase 45 M/min.
	if pr.EvaluatedRateTPM < 40e6 {
		t.Errorf("evaluated rate = %g, want ≈45e6", pr.EvaluatedRateTPM)
	}
	if pr.Prediction.Risk != core.RiskHigh {
		t.Errorf("risk = %v", pr.Prediction.Risk)
	}
}

func TestTrafficSyncAndForecastShape(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/traffic/word-count?sync=true", TrafficRequest{
		SourceMinutes:  40,
		HorizonMinutes: 10,
		Models:         []string{"summary"},
	})
	tr := decode[TrafficResponse](t, resp, http.StatusOK)
	if len(tr.Results) != 1 || tr.Results[0].Model != "summary" {
		t.Fatalf("results = %+v", tr.Results)
	}
	if len(tr.Results[0].Predictions) != 10 {
		t.Errorf("predictions = %d", len(tr.Results[0].Predictions))
	}
	if tr.Results[0].SummaryStats == nil || tr.Results[0].SummaryStats.Max < 40e6 {
		t.Errorf("summary stats = %+v", tr.Results[0].SummaryStats)
	}
	// All configured models by default.
	resp2 := postJSON(t, srv.URL+"/api/v1/model/traffic/word-count?sync=true", TrafficRequest{SourceMinutes: 40, HorizonMinutes: 5})
	tr2 := decode[TrafficResponse](t, resp2, http.StatusOK)
	if len(tr2.Results) != 2 {
		t.Errorf("default model results = %d, want 2", len(tr2.Results))
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance", PerformanceRequest{SourceRateTPM: 10e6})
	accepted := decode[map[string]string](t, resp, http.StatusAccepted)
	jobID := accepted["job_id"]
	if jobID == "" {
		t.Fatalf("no job id: %v", accepted)
	}
	deadline := time.Now().Add(10 * time.Second)
	var job Job
	for {
		r, err := http.Get(srv.URL + "/api/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		job = decode[Job](t, r, http.StatusOK)
		if job.Status == JobDone || job.Status == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Status != JobDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	raw, err := json.Marshal(job.Result)
	if err != nil {
		t.Fatal(err)
	}
	var pr PerformanceResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Prediction.Risk != core.RiskLow {
		t.Errorf("async prediction risk = %v", pr.Prediction.Risk)
	}
}

func TestAsyncJobFailure(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/traffic/ghost-topology", TrafficRequest{})
	accepted := decode[map[string]string](t, resp, http.StatusAccepted)
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/api/v1/jobs/" + accepted["job_id"])
		if err != nil {
			t.Fatal(err)
		}
		job := decode[Job](t, r, http.StatusOK)
		if job.Status == JobFailed {
			if job.Error == "" {
				t.Error("failed job with empty error")
			}
			return
		}
		if job.Status == JobDone {
			t.Fatal("job for unknown topology succeeded")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv, now := testEnv(t)
	// A model run reads the service clock; no request can set it, not
	// even to the clock's own reading.
	asOf := `{"as_of": "` + now.Format(time.RFC3339) + `"}`
	cases := []struct {
		method, path, body string
		want               int
		msg                string // in the error message, when set
	}{
		{"GET", "/api/v1/model/traffic/word-count", "", http.StatusMethodNotAllowed, ""},
		{"POST", "/api/v1/model/traffic/", "", http.StatusNotFound, ""},
		{"POST", "/api/v1/model/traffic/ghost?sync=true", "{}", http.StatusNotFound, ""},
		{"POST", "/api/v1/model/traffic/word-count?sync=true", `{"bogus_field": 1}`, http.StatusBadRequest, ""},
		{"POST", "/api/v1/model/topology/word-count/bogus", "{}", http.StatusNotFound, ""},
		{"POST", "/api/v1/model/topology/word-count", "{}", http.StatusNotFound, ""},
		{"GET", "/api/v1/jobs/nope", "", http.StatusNotFound, ""},
		{"POST", "/api/v1/jobs/nope", "", http.StatusMethodNotAllowed, ""},
		// What the client asked for is wrong: 400, never a 5xx the
		// http-5xx-rate SLO would count.
		{"POST", "/api/v1/model/topology/word-count/performance?sync=true", `{"source_rate_tpm": -5}`, http.StatusBadRequest, ""},
		{"POST", "/api/v1/model/topology/word-count/suggest?sync=true", `{"source_rate_tpm": -5}`, http.StatusBadRequest, ""},
		{"POST", "/api/v1/model/topology/word-count/suggest?sync=true", `{"headroom": -0.5}`, http.StatusBadRequest, ""},
		{"POST", "/api/v1/model/topology/word-count/query?sync=true", `{"query": " "}`, http.StatusBadRequest, ""},
		{"POST", "/api/v1/model/topology/word-count/query?sync=true", `{"query": "g.V().bogus()"}`, http.StatusBadRequest, ""},
		{"POST", "/api/v1/model/topology/word-count/query?sync=true", `{"query": "g.V().count()", "graph": "imaginary"}`, http.StatusBadRequest, ""},
		// One JSON value per body: a second one used to be dropped
		// unread, and with it the parallelism override.
		{"POST", "/api/v1/model/topology/word-count/performance?sync=true", `{"source_rate_tpm": 5} {"parallelism": {"counter": 9}}`, http.StatusBadRequest, "data after the JSON value"},
		{"POST", "/api/v1/model/topology/word-count/performance?sync=true", `{"source_rate_tpm": 5} x`, http.StatusBadRequest, "data after the JSON value"},
		{"POST", "/api/v1/model/topology/word-count/query?sync=true", `{"query": "` + strings.Repeat("a", 1<<20) + `"}`, http.StatusRequestEntityTooLarge, "1 MiB"},
		{"POST", "/api/v1/model/topology/word-count/performance?sync=true", asOf, http.StatusBadRequest, "as_of"},
		{"POST", "/api/v1/model/topology/word-count/suggest?sync=true", asOf, http.StatusBadRequest, "as_of"},
		{"POST", "/api/v1/model/traffic/word-count?sync=true", asOf, http.StatusBadRequest, "as_of"},
		{"POST", "/api/v1/model/traffic/word-count/rank?sync=true", asOf, http.StatusBadRequest, "as_of"},
		{"POST", "/api/v1/model/topology/word-count/calibrate?sync=true", `{"source_rate_tpm": 5}`, http.StatusBadRequest, "source_rate_tpm"},
		// A forecast window is bounded on both sides: a negative one was
		// read as the default, and an oversized one sized the daemon's
		// memory (horizon) or overflowed into "no data" (source).
		{"POST", "/api/v1/model/traffic/word-count?sync=true", `{"horizon_minutes": 10081}`, http.StatusBadRequest, "horizon_minutes"},
		{"POST", "/api/v1/model/traffic/word-count?sync=true", `{"horizon_minutes": -1}`, http.StatusBadRequest, "horizon_minutes"},
		{"POST", "/api/v1/model/traffic/word-count?sync=true", `{"source_minutes": 527041}`, http.StatusBadRequest, "source_minutes"},
		{"POST", "/api/v1/model/traffic/word-count?sync=true", `{"source_minutes": -1}`, http.StatusBadRequest, "source_minutes"},
		{"POST", "/api/v1/model/traffic/word-count", `{"horizon_minutes": 10081}`, http.StatusBadRequest, "horizon_minutes"},
		{"POST", "/api/v1/model/traffic/word-count", `{"source_minutes": -1}`, http.StatusBadRequest, "source_minutes"},
		{"POST", "/api/v1/model/traffic/word-count/rank?sync=true", `{"source_minutes": 527041}`, http.StatusBadRequest, "source_minutes"},
		{"POST", "/api/v1/model/traffic/word-count/rank?sync=true", `{"source_minutes": -1}`, http.StatusBadRequest, "source_minutes"},
		{"POST", "/api/v1/model/topology/word-count/performance?sync=true", `{"use_forecast": true, "horizon_minutes": 10081}`, http.StatusBadRequest, "horizon_minutes"},
		{"POST", "/api/v1/model/topology/word-count/performance?sync=true", `{"use_forecast": true, "horizon_minutes": -1}`, http.StatusBadRequest, "horizon_minutes"},
		{"POST", "/api/v1/model/topology/word-count/performance?sync=true", `{"use_forecast": true, "source_minutes": 527041}`, http.StatusBadRequest, "source_minutes"},
		{"POST", "/api/v1/model/topology/word-count/performance?sync=true", `{"use_forecast": true, "source_minutes": -1}`, http.StatusBadRequest, "source_minutes"},
		// sync is a boolean: a value that is not one is refused, not
		// taken as a request for an async job.
		{"POST", "/api/v1/model/topology/word-count/performance?sync=yes", "{}", http.StatusBadRequest, "sync"},
		{"POST", "/api/v1/model/topology/word-count/performance?sync=1", "{}", http.StatusOK, ""},
		{"POST", "/api/v1/model/topology/word-count/performance?sync=True", "{}", http.StatusOK, ""},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
		if !strings.Contains(string(body), c.msg) {
			t.Errorf("%s %s: error %s does not say %q", c.method, c.path, body, c.msg)
		}
	}
}

func TestCalibrateEndpointAndCache(t *testing.T) {
	svc, srv, _ := testEnv(t)
	// First performance call calibrates and caches.
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{SourceRateTPM: 10e6})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	if svc.calcache.Len() != 1 {
		t.Fatal("model not cached after first call")
	}
	// Force recalibration.
	resp2 := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/calibrate?sync=true", struct{}{})
	out := decode[map[string]any](t, resp2, http.StatusOK)
	if out["calibrated"] != true {
		t.Errorf("calibrate = %v", out)
	}
}

func TestModelInspectionEndpoint(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp, err := http.Get(srv.URL + "/api/v1/model/topology/word-count/model")
	if err != nil {
		t.Fatal(err)
	}
	mr := decode[ModelResponse](t, resp, http.StatusOK)
	if mr.Topology != "word-count" || len(mr.Components) != 3 {
		t.Fatalf("model response = %+v", mr)
	}
	byName := map[string]ComponentModelJSON{}
	for _, c := range mr.Components {
		byName[c.Component] = c
	}
	splitter := byName["splitter"]
	if splitter.Alpha < 7.5 || splitter.Alpha > 7.8 {
		t.Errorf("alpha = %g", splitter.Alpha)
	}
	if splitter.SPTPM == nil || *splitter.SPTPM < 9e6 || *splitter.SPTPM > 12e6 {
		t.Errorf("SP = %v", splitter.SPTPM)
	}
	if splitter.CPUPsi <= 0 {
		t.Errorf("psi = %g", splitter.CPUPsi)
	}
	// The spout never saturated, so its SP is null.
	if byName["spout"].SPTPM != nil {
		t.Errorf("spout SP should be null, got %v", *byName["spout"].SPTPM)
	}
	// Wrong method.
	r, err := http.Post(srv.URL+"/api/v1/model/topology/word-count/model", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST model status = %d", r.StatusCode)
	}
	// Unknown topology.
	r2, err := http.Get(srv.URL + "/api/v1/model/topology/ghost/model")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("ghost model status = %d", r2.StatusCode)
	}
}

func TestServiceConstructorValidation(t *testing.T) {
	cfg := config.Default()
	scheduler := sched.New(sched.Options{QueueDepth: cfg.SchedQueueDepth})
	defer scheduler.Close()
	if _, err := NewService(cfg, nil, nil, Options{Scheduler: scheduler}); err == nil {
		t.Error("nil deps accepted")
	}
	bad := cfg
	bad.APIAddr = ""
	tr := tracker.New(nil)
	prov, err := metrics.NewTSDBProvider(tsdb.New(0), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(bad, tr, prov, Options{Scheduler: scheduler}); err == nil {
		t.Error("invalid config accepted")
	}
	// Each required option, left nil on its own, is refused by name.
	for field, unset := range map[string]func(*Options){
		"Logger":    func(o *Options) { o.Logger = nil },
		"Now":       func(o *Options) { o.Now = nil },
		"Scheduler": func(o *Options) { o.Scheduler = nil },
		"History":   func(o *Options) { o.History = nil },
		"SLO":       func(o *Options) { o.SLO = nil },
		"Audit":     func(o *Options) { o.Audit = nil },
		"Usage":     func(o *Options) { o.Usage = nil },
	} {
		opts := withRequired(t, prov, time.Time{}, Options{})
		unset(&opts)
		if _, err := NewService(cfg, tr, prov, opts); err == nil || !strings.Contains(err.Error(), "Options."+field+" is required") {
			t.Errorf("nil %s: err = %v, want it to name Options.%s", field, err, field)
		}
	}
	if _, err := NewService(cfg, tr, prov, withRequired(t, prov, time.Time{}, Options{})); err != nil {
		t.Errorf("every required option given: %v", err)
	}
}

// TestUnsaturatedPredictionIsValidJSON is the regression test for the
// empty-200 bug: at the daemon's default demo rate (30 M tuples/min on
// 3 splitters) the topology never saturates, calibration leaves SP at
// +Inf, and the saturation source — which JSON cannot carry — must
// reach the client as the largest finite float, not as a body-less 200.
func TestUnsaturatedPredictionIsValidJSON(t *testing.T) {
	d := simulate(t, heron.WordCountOptions{SplitterP: 3, CounterP: 4, RatePerMinute: 30e6}, 10*time.Minute)
	d.cfg.CalibrationLookback = 10 * time.Minute
	_, srv := d.serve(t, Options{})

	check := func(name string, p core.TopologyPrediction) {
		t.Helper()
		if p.SinkThroughput <= 0 || p.Risk != core.RiskLow || p.SaturationSource != math.MaxFloat64 ||
			len(p.Paths) != 1 || p.Paths[0].SaturationSource != math.MaxFloat64 {
			t.Errorf("%s prediction = %+v", name, p)
		}
	}
	base := srv.URL + "/api/v1/model/topology/word-count/"
	perf := decode[PerformanceResponse](t, postJSON(t, base+"performance?sync=true", struct{}{}), http.StatusOK)
	check("performance", perf.Prediction)
	plan := decode[SuggestResponse](t, postJSON(t, base+"suggest?sync=true", struct{}{}), http.StatusOK)
	check("suggest", plan.Prediction)

	// The async path stores the same result in the job record.
	accepted := decode[map[string]string](t, postJSON(t, base+"performance", struct{}{}), http.StatusAccepted)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		r, err := http.Get(srv.URL + accepted["poll"])
		if err != nil {
			t.Fatal(err)
		}
		job := decode[struct {
			Status JobStatus           `json:"status"`
			Result PerformanceResponse `json:"result"`
		}](t, r, http.StatusOK)
		if job.Status == JobDone {
			check("job result", job.Result.Prediction)
			break
		}
		if job.Status == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job = %+v", job)
		}
	}

	// The audit ledger records the value the responses sent, not a 0
	// that typed clients read as "already saturated".
	recs := getDecode[AuditListResponse](t, srv.URL+"/api/v1/audit", http.StatusOK).Records
	if len(recs) != 3 {
		t.Fatalf("audit records = %d, want 3", len(recs))
	}
	for _, r := range recs {
		if r.Predicted.SaturationSourceTPM != math.MaxFloat64 {
			t.Errorf("audit record %d saturation_source_tpm = %g, want %g", r.ID, r.Predicted.SaturationSourceTPM, math.MaxFloat64)
		}
	}
}

// TestWriteJSONUnencodable: a value encoding/json rejects becomes a JSON
// 500, never an empty body under the intended status.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"v": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], "unsupported value") {
		t.Fatalf("body = %q (%v)", rec.Body.String(), err)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/suggest?sync=true", SuggestRequest{
		SourceRateTPM: 40e6,
		Headroom:      0.15,
	})
	sr := decode[SuggestResponse](t, resp, http.StatusOK)
	if sr.EvaluatedRateTPM != 40e6 {
		t.Errorf("rate = %g", sr.EvaluatedRateTPM)
	}
	// Splitter SP ≈ 10.8M → ceil(40×1.15/10.8) = 5.
	if sr.Parallelism["splitter"] != 5 {
		t.Errorf("suggested splitter = %d, want 5", sr.Parallelism["splitter"])
	}
	if sr.Prediction.Risk != core.RiskLow {
		t.Errorf("suggested plan risk = %v", sr.Prediction.Risk)
	}
	// Default rate (latest observed ≈ 45M).
	resp2 := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/suggest?sync=true", SuggestRequest{})
	sr2 := decode[SuggestResponse](t, resp2, http.StatusOK)
	if sr2.EvaluatedRateTPM < 40e6 {
		t.Errorf("default rate = %g", sr2.EvaluatedRateTPM)
	}
}

func TestGraphEndpoint(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp, err := http.Get(srv.URL + "/api/v1/model/topology/word-count/graph")
	if err != nil {
		t.Fatal(err)
	}
	gr := decode[GraphResponse](t, resp, http.StatusOK)
	if gr.LogicalVertices != 3 || gr.LogicalEdges != 2 {
		t.Errorf("logical graph %d/%d", gr.LogicalVertices, gr.LogicalEdges)
	}
	// 8 spouts + 3 splitters + 8 counters + 2 stream managers.
	if gr.PhysicalVertices != 8+3+8+2 {
		t.Errorf("physical vertices = %d", gr.PhysicalVertices)
	}
	// Instance paths: 8 × 3 × 8.
	if gr.InstancePathCount != 192 {
		t.Errorf("instance paths = %d", gr.InstancePathCount)
	}
	if len(gr.ComponentPaths) != 1 || len(gr.RemoteFractions) != 2 {
		t.Errorf("paths %v fractions %v", gr.ComponentPaths, gr.RemoteFractions)
	}
	// Unknown topology.
	r, err := http.Get(srv.URL + "/api/v1/model/topology/ghost/graph")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("ghost graph status = %d", r.StatusCode)
	}
}

func TestRankEndpoint(t *testing.T) {
	_, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/traffic/word-count/rank?sync=true", TrafficRequest{SourceMinutes: 40})
	rr := decode[RankResponse](t, resp, http.StatusOK)
	if rr.Topology != "word-count" || len(rr.Ranking) != 2 {
		t.Fatalf("ranking = %+v", rr)
	}
	// The step-function traffic history is non-seasonal; both default
	// models should at least evaluate.
	for _, e := range rr.Ranking {
		if e.Error != "" {
			t.Errorf("%s failed: %s", e.Model, e.Error)
		}
	}
	// Order is MAPE ascending.
	if rr.Ranking[0].MAPE > rr.Ranking[1].MAPE {
		t.Errorf("ranking not sorted: %+v", rr.Ranking)
	}
	// Bad sub-action.
	r, err := http.Post(srv.URL+"/api/v1/model/traffic/word-count/bogus?sync=true", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("bogus traffic action status = %d", r.StatusCode)
	}
}

func TestGraphQueryEndpoint(t *testing.T) {
	_, srv, _ := testEnv(t)
	post := func(body GraphQueryRequest) *http.Response {
		return postJSON(t, srv.URL+"/api/v1/model/topology/word-count/query?sync=true", body)
	}
	// Physical graph (default): splitter instances.
	resp := post(GraphQueryRequest{Query: "g.V().hasLabel('instance').has('component','splitter').count()"})
	qr := decode[GraphQueryResponse](t, resp, http.StatusOK)
	if qr.Result != float64(3) { // JSON numbers decode as float64
		t.Errorf("physical count = %v", qr.Result)
	}
	// Logical graph: components.
	resp2 := post(GraphQueryRequest{Query: "g.V().hasLabel('component').values('name')", Graph: "logical"})
	qr2 := decode[GraphQueryResponse](t, resp2, http.StatusOK)
	vals, ok := qr2.Result.([]any)
	if !ok || len(vals) != 3 {
		t.Errorf("logical values = %#v", qr2.Result)
	}
	// Errors, including a traversal that would grow past the traverser
	// bound (379,224 traversers unbounded).
	for _, body := range []GraphQueryRequest{
		{Query: ""},
		{Query: "g.V().bogus()"},
		{Query: "g.V().count()", Graph: "imaginary"},
		{Query: "g.V().out().in().out().in().out().in().count()"},
	} {
		r := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/query?sync=true", body)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("query %+v status = %d, want 400", body, r.StatusCode)
		}
	}
}
