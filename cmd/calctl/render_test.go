package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/audit"
	"caladrius/internal/incident"
	"caladrius/internal/profiler"
	"caladrius/internal/sched"
	"caladrius/internal/telemetry"
	"caladrius/internal/usage"
)

func ptr[T any](v T) *T { return &v }

// renderServer serves fixed payloads built from the server's own
// response types, so the rendering tests pin calctl's output to what the
// handlers encode rather than to a hand-written copy of the wire format.
func renderServer(t *testing.T) *httptest.Server {
	t.Helper()
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	meta := &profiler.BaselineMeta{Version: 1, CreatedAt: t0, Auto: true, Funcs: 42}
	manifest := func(id, trigger, rule string, at time.Time) incident.Manifest {
		return incident.Manifest{
			Version: 1, ID: id, CapturedAt: at, Trigger: trigger, Rule: rule,
			Artifacts: []incident.Artifact{{Name: incident.ArtifactCPU, Bytes: 2048}, {Name: incident.ArtifactLogs, Bytes: 512}},
		}
	}
	shown := manifest("20260808T121500Z-slo", "slo", "http-5xx-rate", t0.Add(15*time.Minute))
	shown.Description = "5xx share of requests"
	shown.Alert = &incident.AlertInfo{Value: ptr(0.19), Threshold: 0.05, Op: ">", Window: "1m0s"}
	shown.TraceIDs = []string{"req-1", "req-7", "job-2"}
	shown.JoinedTraceIDs = []string{"req-1", "req-7"}
	shown.LogRecords, shown.SpanTraces = 12, 3
	shown.Metrics = &incident.MetricsWindow{
		Metric: "caladrius_http_requests_total:rate", Start: t0, End: t0.Add(15 * time.Minute), Series: 2, Points: 24,
	}
	shown.Notes = []string{"mutex: profile busy", "heap: truncated"}
	urls := map[string]string{}
	for _, a := range shown.Artifacts {
		urls[a.Name] = "/api/v1/incidents/" + shown.ID + "/artifacts/" + a.Name
	}

	payloads := map[string]any{
		"/api/v1/audit": api.AuditListResponse{
			Records: []audit.Record{
				{
					ID: 3, Topology: "word-count", Model: "plan", CreatedAt: t0.Add(3 * time.Minute),
					SourceRateTPM: 4e7, Counterfactual: true,
					Predicted: audit.Predicted{SinkTPM: 3.96e7, Risk: "low"},
				},
				{
					ID: 2, Topology: "word-count", Model: "predict", CreatedAt: t0.Add(2 * time.Minute),
					SourceRateTPM: 1e7, Parallelism: map[string]int{"splitter": 4}, Counterfactual: true,
					Predicted: audit.Predicted{SinkTPM: 9.9e6, Risk: "low"},
					Resolved:  true, Observed: &audit.Observed{SinkTPM: 3.01e7},
				},
				{
					ID: 1, Topology: "word-count", Model: "predict", CreatedAt: t0.Add(time.Minute), SourceRateTPM: 3e7,
					Predicted: audit.Predicted{SinkTPM: 2.95e7, Risk: "high"},
					Resolved:  true, Observed: &audit.Observed{SinkTPM: 3.01e7, Backpressure: true},
					Errors: &audit.Errors{SinkSigned: -0.0199, SinkAPE: 0.0199, RiskOutcome: audit.RiskTP},
				},
			},
			Count: 3,
			Stats: []audit.Stats{
				{Topology: "word-count", Model: "plan"},
				{
					Topology: "word-count", Model: "predict", Resolved: 2, Audited: 1,
					MAPE: ptr(0.0199), SignedError: ptr(-0.0199), TP: 1, Precision: 1, Recall: 0.5, LastCalibrated: &t0,
				},
			},
		},
		"/api/v1/usage": api.UsageResponse{
			WindowSeconds: 300, Capacity: 256, Principals: 2, Evictions: 1, By: "requests",
			Top: []usage.PrincipalUsage{
				{
					Principal: usage.Principal{Tenant: "team-a", Topology: "word-count"}, InFlight: 1,
					Totals: usage.Totals{Requests: 40},
					Window: usage.Totals{
						Requests: 12, Errors: 1, LatencyNanos: 36e6, Runs: 4,
						WallNanos: 4e6, CPUNanos: 2.5e6, AllocBytes: 3 << 20,
					},
				},
				{Principal: usage.Principal{Tenant: "team-b"}, Window: usage.Totals{AllocBytes: 900}},
				{
					Principal: usage.Principal{Tenant: usage.Rollup, Topology: usage.Rollup}, Rollup: true,
					Window: usage.Totals{Requests: 5, LatencyNanos: 5e6, AllocBytes: 2 << 30},
				},
			},
		},
		"/api/v1/sched": api.SchedResponse{
			Scheduler: sched.Stats{
				Workers: 2, QueueLimit: 64, Queued: 1, Busy: 2, Runs: 40,
				Coalesced: 3, Sheds: 1, ActiveTenants: 2, MeanRunMs: 1.25,
			},
			CalCache: sched.CalCacheStats{Entries: 1, Hits: 30, Misses: 2, Stale: 1, Invalidations: 4, HitRate: 30.0 / 33},
		},
		"/api/v1/incidents": api.IncidentListResponse{
			Incidents: []incident.Manifest{
				shown,
				manifest("20260808T121000Z-manual", "manual", "", t0.Add(10*time.Minute)),
				manifest("20260808T120500Z-slo", "slo", "model-accuracy-drift", t0.Add(5*time.Minute)),
				manifest("20260808T120000Z-manual", "manual", "", t0),
			},
			Count: 4,
		},
		"/api/v1/incidents/" + shown.ID: api.IncidentResponse{Manifest: shown, ArtifactURLs: urls},
		// The body handleAlerts writes: the SLO evaluator's alerts.
		"/api/v1/alerts": map[string][]telemetry.Alert{"alerts": {
			{
				Rule: "http-5xx-rate", State: telemetry.StateFiring, Value: ptr(0.19),
				Threshold: 0.05, Op: ">", Window: "1m0s", Since: ptr(t0.Add(14 * time.Minute)), EvaluatedAt: t0,
			},
			{Rule: "http-p95-latency", State: telemetry.StateOK, Value: ptr(0.0123), Threshold: 0.5, Op: ">", Window: "5m0s"},
			{Rule: "model-accuracy-drift", State: telemetry.StateNoData, Threshold: 0.2, Op: ">", Window: "10m0s"},
		}},
		"/api/v1/profiles": profiler.Status{
			Interval: "10s", CPUWindow: "250ms", Epoch: "1m0s", WindowCap: 2, DiffWindows: 3, TopK: 20, WindowsRetained: 2,
			Captures:      map[profiler.Kind]uint64{profiler.KindCPU: 12, profiler.KindHeap: 12, profiler.KindGoroutine: 11, profiler.KindMutex: 10},
			CaptureErrors: 1,
			Samples:       map[profiler.Kind]int64{profiler.KindCPU: 340, profiler.KindHeap: 1 << 20, profiler.KindGoroutine: 44},
			TopRegression: map[profiler.Kind]float64{profiler.KindCPU: 0.0123, profiler.KindHeap: -0.002},
			Baseline:      meta, LastCapture: &t0, LastDuty: 0.025,
			LastErrors: map[profiler.Kind]string{profiler.KindMutex: "profile busy"},
		},
		"/api/v1/profiles/top": api.ProfileTopResponse{
			Kind: profiler.KindCPU, Unit: "nanoseconds", Total: 1000, Samples: 100,
			Functions: []profiler.FuncStat{{Function: "main.hot", Flat: 600, Cum: 700}, {Function: "main.steady", Flat: 300, Cum: 900}},
		},
		"/api/v1/profiles/diff": api.ProfileDiffResponse{
			Baseline: meta,
			Diff: &profiler.Diff{
				Kind: profiler.KindCPU, Total: 1000, Samples: 100, Unit: "nanoseconds", MinSamples: 10,
				Entries: []profiler.DiffEntry{
					{Function: "main.hot", CurFlat: 0.6, DeltaFlat: 0.6, CurCum: 0.7, DeltaCum: 0.7},
					{Function: "main.steady", BaseFlat: 0.9, CurFlat: 0.3, DeltaFlat: -0.6},
				},
			},
		},
	}
	series := map[string][]float64{
		"caladrius_http_requests_total:rate":          {1, 2, 4, 3},
		"caladrius_http_request_duration_seconds:p95": {0.001, 0.004, 0.002},
		"caladrius_model_mape":                        {0.02, 0.05},
	}
	mux := http.NewServeMux()
	serve := func(w http.ResponseWriter, body any) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(body); err != nil {
			t.Error(err)
		}
	}
	for path, body := range payloads {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) { serve(w, body) })
	}
	mux.HandleFunc("/api/v1/query_range", func(w http.ResponseWriter, r *http.Request) {
		resp := api.QueryRangeResponse{Metric: r.URL.Query().Get("metric"), Points: []api.RangePoint{}}
		for i, v := range series[resp.Metric] {
			resp.Points = append(resp.Points, api.RangePoint{T: t0.Add(time.Duration(i) * 10 * time.Second), V: v})
		}
		serve(w, resp)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRenderGolden pins the exact stdout of every command that renders
// a table from a decoded payload.
func TestRenderGolden(t *testing.T) {
	srv := renderServer(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"accuracy"}, renderGoldenAccuracy},
		{[]string{"usage"}, renderGoldenUsage},
		{[]string{"incidents"}, renderGoldenIncidents},
		{[]string{"incidents", "show", "20260808T121500Z-slo"}, renderGoldenIncidentShow},
		{[]string{"profile"}, renderGoldenProfile},
		{[]string{"profile", "top"}, renderGoldenProfileTop},
		{[]string{"profile", "diff"}, renderGoldenProfileDiff},
		{[]string{"dash", "-iterations", "1", "-no-clear", "-width", "8"}, renderGoldenDash},
	}
	for _, c := range cases {
		name := strings.Join(c.args, " ")
		out, err := captureStdout(t, func() error {
			return run(append([]string{"-server", srv.URL}, c.args...))
		})
		if err != nil {
			t.Errorf("calctl %s: %v", name, err)
			continue
		}
		if c.args[0] == "dash" {
			// The header line carries the wall-clock time.
			_, out, _ = strings.Cut(out, "\n")
		}
		if out != c.want {
			t.Errorf("calctl %s:\n--- got ---\n%s\n--- want ---\n%s", name, out, c.want)
		}
	}
}

const renderGoldenAccuracy = `topology       model    resolved  audited  mape      signed    precision recall    calibrated
word-count     plan     0         0        -         -         0.000     0.000     -
word-count     predict  2         1        1.99%     -1.99%    1.000     0.500     2026-08-08T12:00:00Z

id     topology       model    created              pred_sink_tpm  obs_sink_tpm   ape      risk  state
3      word-count     plan     2026-08-08T12:03:00Z 3.96e+07       -              -        low   pending
2      word-count     predict  2026-08-08T12:02:00Z 9.9e+06        3.01e+07       -        low   counterfactual
1      word-count     predict  2026-08-08T12:01:00Z 2.95e+07       3.01e+07       1.99%    high/tp resolved
`

const renderGoldenUsage = `usage over the last 5m0s (ranked by requests; 2/256 principals live, 1 evicted into other)
tenant           topology       reqs     errs    mean_ms   runs   cpu_ms    allocs
team-a           word-count     12       1       3.000     4      2.500     3.00MiB
team-b                          0        0       -         0      0.000     900B
(other)          other          5        0       1.000     0      0.000     2.00GiB

scheduler: 40 runs, 3 coalesced, 1 shed (429); queue 1/64, 2 active tenants, calcache hit rate 91%
`

const renderGoldenIncidents = `id                           trigger  rule                     artifacts captured_at
20260808T121500Z-slo         slo      http-5xx-rate            2         2026-08-08T12:15:00Z
20260808T121000Z-manual      manual   -                        2         2026-08-08T12:10:00Z
20260808T120500Z-slo         slo      model-accuracy-drift     2         2026-08-08T12:05:00Z
20260808T120000Z-manual      manual   -                        2         2026-08-08T12:00:00Z
`

const renderGoldenIncidentShow = `incident 20260808T121500Z-slo  (v1, 2026-08-08T12:15:00Z)
  trigger: slo
  rule:    http-5xx-rate
  desc:    5xx share of requests
  alert:   0.19 > 0.05 over 1m0s
  metrics: caladrius_http_requests_total:rate  2026-08-08T12:00:00Z → 2026-08-08T12:15:00Z  (2 series, 24 points)
  logs:    12 records
  spans:   3 traces
  joined:  req-1 req-7
  artifacts:
    cpu.pprof            2048 bytes  /api/v1/incidents/20260808T121500Z-slo/artifacts/cpu.pprof
    logs.json             512 bytes  /api/v1/incidents/20260808T121500Z-slo/artifacts/logs.json
  notes:
    heap: truncated
    mutex: profile busy
`

const renderGoldenProfile = `profiler: interval 10s, cpu window 250ms, epoch 1m0s, 2/2 windows retained, duty 2.50%
baseline: auto, created 2026-08-08T12:00:00Z, 42 functions
kind       captures   samples        top_regression
cpu        12         340            +0.0123
goroutine  11         44             +0.0000
heap       12         1048576        -0.0020
mutex      10         0              +0.0000
capture errors: 1  [mutex: profile busy]
`

const renderGoldenProfileTop = `top functions by flat nanoseconds (cpu profile, 100 samples over the diff window)
flat         flat%    cum          cum%     function
600          60.00%   700          70.00%   main.hot
300          30.00%   900          90.00%   main.steady
`

const renderGoldenProfileDiff = `regression vs auto baseline of 2026-08-08T12:00:00Z (cpu profile)
Δflat%     base%      cur%       function
+60.00     0.00       60.00      main.hot
-60.00     90.00      30.00      main.steady
`

const renderGoldenDash = `
req rate       ▁▃█▅      3 req/s
p95 latency    ▁█▃       2 ms
in flight                (no data)
goroutines               (no data)
backpressure             (no data)
model MAPE     ▁█        5 %
prof Δhot                (no data)
sched queue              (no data)
sheds                    (no data)

alerts:
  FIRING     http-5xx-rate            0.19 > 0.05 over 1m0s  since 2026-08-08T12:14:00Z
  OK         http-p95-latency         0.0123 > 0.5 over 5m0s
  NO_DATA    model-accuracy-drift     - > 0.2 over 10m0s

incidents:
  20260808T121500Z-slo         http-5xx-rate            2026-08-08T12:15:00Z
  20260808T121000Z-manual      manual                   2026-08-08T12:10:00Z
  20260808T120500Z-slo         model-accuracy-drift     2026-08-08T12:05:00Z
  (1 more — calctl incidents)

scheduler:
  queue 1/64  busy 2/2  tenants 2  runs 40  coalesced 3  sheds 1  mean run 1.2ms
  calcache 1 entries  hit rate 91%  (30 hits, 2 misses, 1 stale, 4 invalidations)

top tenants (by requests):
  team-a           word-count         12 reqs       2.5 cpu_ms  3.00MiB
  team-b                               0 reqs       0.0 cpu_ms  900B
  (other)          other               5 reqs       0.0 cpu_ms  2.00GiB
`
