package api

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"caladrius/internal/telemetry"
)

// TestMiddlewareCounts exercises the instrumented handler and checks
// the per-route counters, the latency histogram and the in-flight
// gauge through the registry.
func TestMiddlewareCounts(t *testing.T) {
	svc, srv, _ := testEnv(t)
	reg := svc.tel

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/api/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	health2xx := reg.Counter("caladrius_http_requests_total", telemetry.Labels{"route": "/api/v1/health", "class": "2xx"})
	if got := health2xx.Value(); got != 3 {
		t.Errorf("health 2xx = %g, want 3", got)
	}
	job4xx := reg.Counter("caladrius_http_requests_total", telemetry.Labels{"route": "/api/v1/jobs/{id}", "class": "4xx"})
	if got := job4xx.Value(); got != 1 {
		t.Errorf("job 4xx = %g, want 1", got)
	}
	lat := reg.Histogram("caladrius_http_request_duration_seconds", telemetry.DefLatencyBuckets, telemetry.Labels{"route": "/api/v1/health"})
	if got := lat.Count(); got != 3 {
		t.Errorf("health latency observations = %d, want 3", got)
	}
	bytes := reg.Counter("caladrius_http_response_bytes_total", telemetry.Labels{"route": "/api/v1/health"})
	if got := bytes.Value(); got <= 0 {
		t.Errorf("health response bytes = %g, want > 0", got)
	}
	if got := reg.Gauge("caladrius_http_in_flight_requests", nil).Value(); got != 0 {
		t.Errorf("in-flight after requests drained = %g, want 0", got)
	}
}

// spanNames flattens a span tree into the set of span names.
func spanNames(spans []telemetry.SpanJSON, into map[string]bool) {
	for _, s := range spans {
		into[s.Name] = true
		spanNames(s.Children, into)
	}
}

// TestSyncTracePropagation issues a ?sync=true performance request and
// follows the X-Caladrius-Trace header to the recorded span tree.
func TestSyncTracePropagation(t *testing.T) {
	svc, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{
		Parallelism:   map[string]int{"splitter": 4},
		SourceRateTPM: 30e6,
	})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	traceID := resp.Header.Get(TraceHeader)
	if traceID == "" {
		t.Fatal("sync response missing " + TraceHeader + " header")
	}

	tresp, err := http.Get(srv.URL + "/api/v1/jobs/" + traceID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tj := decode[telemetry.TraceJSON](t, tresp, http.StatusOK)
	if tj.TraceID != traceID {
		t.Errorf("trace id = %q, want %q", tj.TraceID, traceID)
	}
	if len(tj.Spans) != 1 || tj.Spans[0].Name != "performance" {
		t.Fatalf("root spans = %+v, want single \"performance\" root", tj.Spans)
	}
	root := tj.Spans[0]
	if root.InProgress {
		t.Error("sync root span still in progress")
	}
	if root.Attrs["mode"] != "sync" {
		t.Errorf("root mode attr = %q, want sync", root.Attrs["mode"])
	}
	names := map[string]bool{}
	spanNames(tj.Spans, names)
	for _, want := range []string{"calibrate", "fetch-windows", "predict"} {
		if !names[want] {
			t.Errorf("trace missing %q stage (got %v)", want, names)
		}
	}
	// Per-component calibration stages come through the core.StageTimer
	// hook.
	var hasStage bool
	for n := range names {
		if strings.HasPrefix(n, "calibrate:") {
			hasStage = true
		}
	}
	if !hasStage {
		t.Errorf("trace has no calibrate:<component> stage spans (got %v)", names)
	}

	// A second request on the calibrated service marks the model cache
	// hit in the calibrate span.
	resp2 := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{
		Parallelism:   map[string]int{"splitter": 4},
		SourceRateTPM: 30e6,
	})
	decode[PerformanceResponse](t, resp2, http.StatusOK)
	tj2, ok := svc.tracer.Snapshot(resp2.Header.Get(TraceHeader))
	if !ok {
		t.Fatal("second trace not retained")
	}
	var calibrate *telemetry.SpanJSON
	for i := range tj2.Spans[0].Children {
		if tj2.Spans[0].Children[i].Name == "calibrate" {
			calibrate = &tj2.Spans[0].Children[i]
		}
	}
	if calibrate == nil {
		t.Fatal("second trace missing calibrate span")
	}
	if calibrate.Attrs["cache"] != "hit" {
		t.Errorf("second calibrate cache attr = %q, want hit", calibrate.Attrs["cache"])
	}
}

// TestAsyncJobTrace runs an asynchronous suggest job and checks its
// trace is stored under the job id with the pipeline stages.
func TestAsyncJobTrace(t *testing.T) {
	svc, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/suggest", SuggestRequest{SourceRateTPM: 40e6})
	accepted := decode[map[string]any](t, resp, http.StatusAccepted)
	jobID, _ := accepted["job_id"].(string)
	if jobID == "" {
		t.Fatalf("no job id in %v", accepted)
	}
	if got := accepted["trace"]; got != "/api/v1/jobs/"+jobID+"/trace" {
		t.Errorf("trace link = %v", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		job, ok := svc.jobs.get(jobID)
		if ok && job.Status != JobRunning && job.Status != JobPending {
			if job.Status != JobDone {
				t.Fatalf("job finished %s: %s", job.Status, job.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	tresp, err := http.Get(srv.URL + "/api/v1/jobs/" + jobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tj := decode[telemetry.TraceJSON](t, tresp, http.StatusOK)
	if tj.TraceID != jobID {
		t.Errorf("trace id = %q, want job id %q", tj.TraceID, jobID)
	}
	names := map[string]bool{}
	spanNames(tj.Spans, names)
	stages := 0
	for _, want := range []string{"calibrate", "fetch-windows", "plan", "predict"} {
		if names[want] {
			stages++
		}
	}
	if stages < 3 {
		t.Errorf("async trace has %d named pipeline stages, want ≥ 3 (got %v)", stages, names)
	}
	if got := svc.tel.Counter("caladrius_jobs_completed_total", telemetry.Labels{"outcome": "done"}).Value(); got < 1 {
		t.Errorf("jobs done counter = %g, want ≥ 1", got)
	}
	if got := svc.tel.Gauge("caladrius_jobs_running", nil).Value(); got != 0 {
		t.Errorf("jobs running gauge = %g, want 0", got)
	}
}

// TestMetricsVisiblyIncrement covers the acceptance check: the
// Prometheus endpoint shows non-zero counters after one sync request.
func TestMetricsVisiblyIncrement(t *testing.T) {
	svc, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{
		SourceRateTPM: 20e6,
	})
	decode[PerformanceResponse](t, resp, http.StatusOK)

	var buf strings.Builder
	if err := svc.tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `caladrius_http_requests_total{class="2xx",route="/api/v1/model/topology/{topology}/performance"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("prometheus output missing %q:\n%s", want, out)
	}
}
