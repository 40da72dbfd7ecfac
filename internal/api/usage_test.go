package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
)

// requestAs issues a request with an explicit X-Caladrius-Tenant header.
func requestAs(t *testing.T, tenant, method, rawURL string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, rawURL, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func findUsage(top []usage.PrincipalUsage, tenant, topology string) *usage.PrincipalUsage {
	for i := range top {
		if top[i].Tenant == tenant && top[i].Topology == topology {
			return &top[i]
		}
	}
	return nil
}

// TestUsageEndToEndTwoTenants is the acceptance flow: two tenants drive
// real predict/plan traffic through the instrumented handler, usage is
// read back ranked by CPU and by allocations, the caladrius_tenant_*
// series flow through the scraper into the self-monitoring TSDB and
// back out via query_range, and audit records carry the tenant and are
// filterable by it.
func TestUsageEndToEndTwoTenants(t *testing.T) {
	reg := telemetry.NewRegistry()
	db := tsdb.New(time.Hour)
	scraper := telemetry.NewScraper(reg, db, telemetry.ScrapeOptions{})
	acct := usage.New(usage.Options{Capacity: 32, Window: 15 * time.Minute, Registry: reg})
	env := auditEnv(t, Options{Telemetry: reg, History: db, Usage: acct})
	srv := env.srv

	// team-a: two predict runs and a few cheap requests.
	for i := 0; i < 2; i++ {
		resp := requestAs(t, "team-a", "POST",
			srv.URL+"/api/v1/model/topology/word-count/performance?sync=true",
			PerformanceRequest{SourceRateTPM: 20e6})
		decode[PerformanceResponse](t, resp, http.StatusOK)
	}
	for i := 0; i < 3; i++ {
		r := requestAs(t, "team-a", "GET", srv.URL+"/api/v1/health", nil)
		r.Body.Close()
	}
	// team-b: one plan run.
	resp := requestAs(t, "team-b", "POST",
		srv.URL+"/api/v1/model/topology/word-count/suggest?sync=true",
		SuggestRequest{SourceRateTPM: 30e6})
	decode[SuggestResponse](t, resp, http.StatusOK)

	ur := getDecode[UsageResponse](t, srv.URL+"/api/v1/usage?by=cpu&n=10", http.StatusOK)
	if ur.By != "cpu" || ur.Capacity != 32 {
		t.Errorf("echoed query = %+v", ur)
	}
	a := findUsage(ur.Top, "team-a", "word-count")
	b := findUsage(ur.Top, "team-b", "word-count")
	if a == nil || b == nil {
		t.Fatalf("missing principals in %+v", ur.Top)
	}
	// team-a's first predict also calibrates (cache miss), and that
	// metered run is charged to the caller who paid for it: 2 + 1.
	if a.Window.Runs != 3 || b.Window.Runs != 1 {
		t.Errorf("runs a=%d b=%d, want 3/1", a.Window.Runs, b.Window.Runs)
	}
	if a.Window.Requests != 2 || b.Window.Requests != 1 {
		t.Errorf("model-route requests a=%d b=%d, want 2/1", a.Window.Requests, b.Window.Requests)
	}
	for _, p := range []*usage.PrincipalUsage{a, b} {
		if p.Window.WallNanos == 0 {
			t.Errorf("%s: wall=0, want > 0", p.Tenant)
		}
		if runtime.GOOS == "linux" && p.Window.CPUNanos == 0 {
			t.Errorf("%s: cpu time not measured on linux", p.Tenant)
		}
	}
	// Allocation deltas come from runtime/metrics, whose per-P counters
	// are coarse; only the heavyweight calibration run is guaranteed to
	// move them.
	if a.Window.AllocBytes == 0 {
		t.Error("team-a: alloc bytes = 0 after calibration, want > 0")
	}
	// Health hits land on the no-topology principal.
	if h := findUsage(ur.Top, "team-a", NoTopology); h == nil || h.Window.Requests != 3 {
		t.Errorf("team-a health principal = %+v, want 3 requests", h)
	}

	// Ranked by allocations: live principals are sorted descending.
	ua := getDecode[UsageResponse](t, srv.URL+"/api/v1/usage?by=allocs&n=10", http.StatusOK)
	var prev uint64 = ^uint64(0)
	for _, p := range ua.Top {
		if p.Rollup {
			continue
		}
		if p.Window.AllocBytes > prev {
			t.Errorf("allocs ranking not descending: %+v", ua.Top)
		}
		prev = p.Window.AllocBytes
	}

	// The per-tenant series reach the self-monitoring store.
	scraper.ScrapeOnce(env.asOf)
	v := url.Values{
		"metric": {usage.MetricRequests},
		"start":  {env.asOf.Add(-time.Minute).Format(time.RFC3339)},
		"end":    {env.asOf.Add(time.Minute).Format(time.RFC3339)},
		"step":   {"10s"},
		"agg":    {"max"},
		"tenant": {"team-a"},
	}
	qr := getDecode[QueryRangeResponse](t, srv.URL+"/api/v1/query_range?"+v.Encode(), http.StatusOK)
	if len(qr.Points) == 0 {
		t.Fatal("no caladrius_tenant_requests_total points for team-a")
	}
	if last := qr.Points[len(qr.Points)-1].V; last < 5 {
		t.Errorf("team-a scraped requests = %g, want ≥ 5", last)
	}

	// Audit records carry the tenant and the measured run cost, and the
	// ledger filters by tenant.
	al := getDecode[AuditListResponse](t, srv.URL+"/api/v1/audit?tenant=team-a", http.StatusOK)
	if len(al.Records) != 2 {
		t.Fatalf("team-a audit records = %d, want 2", len(al.Records))
	}
	for _, rec := range al.Records {
		if rec.Tenant != "team-a" {
			t.Errorf("filtered record tenant = %q", rec.Tenant)
		}
		if rec.Cost == nil || rec.Cost.WallNanos <= 0 {
			t.Errorf("record %d cost = %+v, want measured wall time", rec.ID, rec.Cost)
		}
	}
	// Unknown audit query parameters are rejected, not ignored.
	rbad, err := http.Get(srv.URL + "/api/v1/audit?tennant=team-a")
	if err != nil {
		t.Fatal(err)
	}
	rbad.Body.Close()
	if rbad.StatusCode != http.StatusBadRequest {
		t.Errorf("misspelled audit param status = %d, want 400", rbad.StatusCode)
	}
}

// TestUsageEndpointValidation covers the strict query-parameter
// contract of /api/v1/usage.
func TestUsageEndpointValidation(t *testing.T) {
	acct := usage.New(usage.Options{Capacity: 256, Window: 15 * time.Minute})
	_, srv, _ := testEnvWith(t, Options{Usage: acct})
	bad := []string{
		"?by=bogus",
		"?n=0",
		"?n=-3",
		"?n=ten",
		"?order=cpu", // unknown parameter
	}
	for _, q := range bad {
		resp, err := http.Get(srv.URL + "/api/v1/usage" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /api/v1/usage%s status = %d, want 400", q, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/api/v1/usage", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST usage status = %d, want 405", resp.StatusCode)
	}
}

// TestUsageTenantSanitization: hostile or malformed tenant headers are
// coerced to the anonymous principal rather than minting series.
func TestUsageTenantSanitization(t *testing.T) {
	acct := usage.New(usage.Options{Capacity: 256, Window: 15 * time.Minute})
	_, srv, _ := testEnvWith(t, Options{Usage: acct})
	hostile := []string{
		"",
		"has spaces",
		"semi;colon",
		strings.Repeat("x", 65),
		"quote\"quote",
	}
	for _, h := range hostile {
		r := requestAs(t, h, "GET", srv.URL+"/api/v1/health", nil)
		r.Body.Close()
	}
	ur := getDecode[UsageResponse](t, srv.URL+"/api/v1/usage", http.StatusOK)
	anon := findUsage(ur.Top, AnonymousTenant, NoTopology)
	if anon == nil || anon.Window.Requests != uint64(len(hostile)) {
		t.Fatalf("anonymous principal = %+v, want %d requests", anon, len(hostile))
	}
	for _, p := range ur.Top {
		if p.Tenant != AnonymousTenant && !p.Rollup {
			t.Errorf("hostile header minted principal %+v", p.Principal)
		}
	}
}

// TestUsageHostileHighCardinality is the cardinality-bound acceptance
// check: a churn of 10k distinct tenant headers leaves at most K live
// principals, every request is conserved (live + other), and the
// eviction counter accounts for the overflow.
func TestUsageHostileHighCardinality(t *testing.T) {
	const churn = 10000
	acct := usage.New(usage.Options{Capacity: 16, Window: 15 * time.Minute})
	_, srv, _ := testEnvWith(t, Options{Usage: acct})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	for i := 0; i < churn; i++ {
		req, err := http.NewRequest("GET", srv.URL+"/api/v1/health", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, fmt.Sprintf("tenant-%05d", i))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if live := acct.Len(); live > 16 {
		t.Errorf("live principals = %d, want ≤ 16", live)
	}
	ur := getDecode[UsageResponse](t, srv.URL+"/api/v1/usage?n=100", http.StatusOK)
	var total uint64
	var sawRollup bool
	for _, p := range ur.Top {
		// Every finished request so far is health-route churn (the usage
		// read itself is still in flight), so a plain sum conserves.
		total += p.Totals.Requests
		sawRollup = sawRollup || p.Rollup
	}
	if total != churn {
		t.Errorf("conserved requests = %d, want %d", total, churn)
	}
	if !sawRollup {
		t.Error("rollup bucket missing after churn")
	}
	if ev := acct.Evictions(); ev < churn-16-1 {
		t.Errorf("evictions = %d, want ≥ %d", ev, churn-16-1)
	}
}
