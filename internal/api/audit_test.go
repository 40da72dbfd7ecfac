package api

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"caladrius/internal/audit"
	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

// auditEnvState is one simulated service life: the ledger, the server
// and the deployment a "restarted" service is served over again when a
// test spans a shutdown.
type auditEnvState struct {
	deployment
	led *audit.Ledger
	srv *httptest.Server
}

// auditEnv is testEnv with the deployment and the ledger serve wired
// over its simulated metrics in hand, so a test can resolve records
// against real actuals and serve the deployment again.
func auditEnv(t *testing.T, opts Options) *auditEnvState {
	t.Helper()
	d := newDeployment(t)
	svc, srv := d.serve(t, opts)
	return &auditEnvState{deployment: d, led: svc.audit, srv: srv}
}

// TestAuditEndToEnd drives predict and plan runs through the service,
// reads the ledger back over the API, resolves it, and checks the
// record detail payloads.
func TestAuditEndToEnd(t *testing.T) {
	env := auditEnv(t, Options{})
	led, srv, asOf := env.led, env.srv, env.asOf

	// Run 1: the deployed configuration at the observed rate — graded.
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	// Run 2: an explicit hypothetical rate — counterfactual.
	resp = postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{SourceRateTPM: 10e6})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	// Run 3: a plan suggestion — always counterfactual.
	resp = postJSON(t, srv.URL+"/api/v1/model/topology/word-count/suggest?sync=true", SuggestRequest{SourceRateTPM: 40e6})
	decode[SuggestResponse](t, resp, http.StatusOK)

	list := getDecode[AuditListResponse](t, srv.URL+"/api/v1/audit", http.StatusOK)
	if list.Count != 3 || len(list.Records) != 3 {
		t.Fatalf("audit list count = %d (%d records), want 3", list.Count, len(list.Records))
	}
	// Newest first: plan, counterfactual predict, graded predict.
	if list.Records[0].Model != "plan" || list.Records[2].Model != "predict" {
		t.Fatalf("record order = %s, %s, %s", list.Records[0].Model, list.Records[1].Model, list.Records[2].Model)
	}
	if list.Records[2].Counterfactual || !list.Records[1].Counterfactual || !list.Records[0].Counterfactual {
		t.Fatalf("counterfactual flags = %v, %v, %v", list.Records[0].Counterfactual, list.Records[1].Counterfactual, list.Records[2].Counterfactual)
	}
	if len(list.Records[0].Parallelism) == 0 {
		t.Error("plan record carries no suggested parallelism")
	}
	for _, rec := range list.Records {
		if len(rec.Calibration) == 0 {
			t.Errorf("record %d carries no calibration snapshot", rec.ID)
		}
		if rec.Predicted.Sink != "counter" {
			t.Errorf("record %d sink = %q, want counter", rec.ID, rec.Predicted.Sink)
		}
		if !rec.CreatedAt.Equal(asOf) {
			t.Errorf("record %d created at %s, want service clock %s", rec.ID, rec.CreatedAt, asOf)
		}
	}

	// Filters narrow the listing.
	plans := getDecode[AuditListResponse](t, srv.URL+"/api/v1/audit?model=plan", http.StatusOK)
	if plans.Count != 1 || plans.Records[0].Model != "plan" {
		t.Fatalf("model=plan list = %+v", plans.Records)
	}
	limited := getDecode[AuditListResponse](t, srv.URL+"/api/v1/audit?limit=2", http.StatusOK)
	if limited.Count != 2 {
		t.Fatalf("limit=2 count = %d", limited.Count)
	}
	none := getDecode[AuditListResponse](t, srv.URL+"/api/v1/audit?topology=nothing", http.StatusOK)
	if none.Count != 0 || none.Records == nil {
		t.Fatalf("empty list = %#v, want empty non-null records", none.Records)
	}

	// Resolve against the simulated actuals and read the detail payloads.
	if n := led.ResolveOnce(asOf); n != 3 {
		t.Fatalf("ResolveOnce = %d, want 3", n)
	}
	graded := getDecode[AuditRecordResponse](t, srv.URL+"/api/v1/audit/1", http.StatusOK)
	if !graded.Resolved || graded.Observed == nil || graded.Errors == nil {
		t.Fatalf("graded record = %+v", graded.Record)
	}
	if graded.Observed.SinkTPM <= 0 {
		t.Errorf("observed sink TPM = %g, want > 0", graded.Observed.SinkTPM)
	}
	if graded.TraceID == "" {
		t.Error("sync run recorded no trace id")
	} else if want := "/api/v1/jobs/" + graded.TraceID + "/trace"; graded.Trace != want {
		t.Errorf("trace link = %q, want %q", graded.Trace, want)
	}
	counterfactual := getDecode[AuditRecordResponse](t, srv.URL+"/api/v1/audit/2", http.StatusOK)
	if !counterfactual.Resolved || counterfactual.Observed == nil || counterfactual.Errors != nil {
		t.Fatalf("counterfactual record = %+v", counterfactual.Record)
	}
	resolved := getDecode[AuditListResponse](t, srv.URL+"/api/v1/audit?resolved=true", http.StatusOK)
	if resolved.Count != 3 {
		t.Fatalf("resolved=true count = %d, want 3", resolved.Count)
	}
	// Only the graded predict run feeds the accuracy stats.
	var predictStats *audit.Stats
	for i := range resolved.Stats {
		if resolved.Stats[i].Model == "predict" {
			predictStats = &resolved.Stats[i]
		}
	}
	if predictStats == nil || predictStats.Audited != 1 || predictStats.MAPE == nil {
		t.Fatalf("predict stats = %+v", resolved.Stats)
	}

	// Validation and error paths.
	for _, q := range []string{"resolved=bogus", "limit=0", "limit=-3", "limit=x", "since=yesterday", "until=NaN"} {
		r, err := http.Get(srv.URL + "/api/v1/audit?" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q status = %d, want 400", q, r.StatusCode)
		}
	}
	for path, want := range map[string]int{
		"/api/v1/audit/abc":  http.StatusBadRequest,
		"/api/v1/audit/0":    http.StatusBadRequest,
		"/api/v1/audit/9999": http.StatusNotFound,
	} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s status = %d, want %d", path, r.StatusCode, want)
		}
	}
	for _, path := range []string{"/api/v1/audit", "/api/v1/audit/1"} {
		r, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status = %d, want 405", path, r.StatusCode)
		}
	}
}

// TestShutdownSnapshotRestoresAuditHistory is the restart flow: a
// service resolves audit records and writes accuracy series into its
// history store, shuts down by snapshotting both to disk, and a fresh
// service built from the snapshots serves the error series over
// /api/v1/query_range and the resolved records over /api/v1/audit.
func TestShutdownSnapshotRestoresAuditHistory(t *testing.T) {
	db, reg := tsdb.New(24*time.Hour), telemetry.NewRegistry()
	env := auditEnv(t, Options{History: db, Telemetry: reg})

	// One graded run, resolved and scraped so caladrius_model_* series
	// exist.
	resp := postJSON(t, env.srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	if n := env.led.ResolveOnce(env.asOf); n != 1 {
		t.Fatalf("ResolveOnce = %d, want 1", n)
	}
	telemetry.NewScraper(reg, db, telemetry.ScrapeOptions{}).ScrapeOnce(env.asOf)

	// Graceful shutdown: snapshot history and ledger, as the daemon does.
	dir := t.TempDir()
	histPath, auditPath := dir+"/history.snap", dir+"/audit.snap"
	if err := db.SaveFile(histPath); err != nil {
		t.Fatalf("history SaveFile: %v", err)
	}
	if err := env.led.SaveFile(auditPath); err != nil {
		t.Fatalf("audit SaveFile: %v", err)
	}

	// Second life: everything restored from disk.
	db2, err := tsdb.LoadFile(histPath)
	if err != nil {
		t.Fatalf("history LoadFile: %v", err)
	}
	svc2, srv2 := env.serve(t, Options{History: db2})
	if err := svc2.audit.LoadFile(auditPath); err != nil {
		t.Fatalf("audit LoadFile: %v", err)
	}

	// The restored history serves the accuracy series over query_range.
	v := url.Values{
		"metric": {"caladrius_model_mape"},
		"start":  {env.asOf.Add(-time.Hour).Format(time.RFC3339)},
		"end":    {env.asOf.Add(time.Hour).Format(time.RFC3339)},
		"step":   {"1m"},
		"agg":    {"last"},
	}
	qr := getDecode[QueryRangeResponse](t, srv2.URL+"/api/v1/query_range?"+v.Encode(), http.StatusOK)
	if len(qr.Points) == 0 {
		t.Fatal("restored history serves no caladrius_model_mape points")
	}
	if qr.Points[len(qr.Points)-1].V < 0 {
		t.Errorf("restored MAPE = %g, want ≥ 0", qr.Points[len(qr.Points)-1].V)
	}

	// The restored ledger serves the resolved record with its errors.
	list := getDecode[AuditListResponse](t, srv2.URL+"/api/v1/audit?resolved=true", http.StatusOK)
	if list.Count != 1 {
		t.Fatalf("restored audit list count = %d, want 1", list.Count)
	}
	rec := getDecode[AuditRecordResponse](t, srv2.URL+"/api/v1/audit/1", http.StatusOK)
	if !rec.Resolved || rec.Errors == nil || rec.Observed == nil {
		t.Fatalf("restored record = %+v", rec.Record)
	}
	// And the replayed rolling stats survive the restart.
	if len(list.Stats) != 1 || list.Stats[0].Audited != 1 || list.Stats[0].MAPE == nil {
		t.Fatalf("restored stats = %+v", list.Stats)
	}
}
