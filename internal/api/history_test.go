package api

import (
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

var histT0 = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

func getDecode[T any](t *testing.T, rawURL string, wantStatus int) T {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return decode[T](t, resp, wantStatus)
}

// TestSelfMonitoringEndToEnd is the acceptance flow: a service with the
// scraper's history store and an SLO evaluator wired in, real traffic
// driven through the instrumented handler, deterministic scrapes, then
// history read back through /api/v1/query_range and a deliberately
// tripped rule observed firing through /api/v1/alerts. As in the daemon,
// each scrape evaluates the rules; the endpoint only reads the result.
func TestSelfMonitoringEndToEnd(t *testing.T) {
	reg := instrument.NewRegistry()
	db := tsdb.New(time.Hour)
	scraper := telemetry.NewScraper(reg, db, telemetry.ScrapeOptions{})
	sloNow := histT0.Add(20 * time.Second)
	rules := []telemetry.Rule{
		// Any request within the window trips this: max cumulative
		// requests_total ≥ 1 > 0.5.
		{Name: "traffic-seen", Metric: "caladrius_http_requests_total", Agg: tsdb.AggMax, Window: time.Minute, Threshold: 0.5},
		// Any derived p95 sample trips this (p95 ≥ 0 > -1).
		{Name: "latency-p95", Metric: telemetry.QuantileSeries("caladrius_http_request_duration_seconds", 0.95), Agg: tsdb.AggMax, Window: time.Minute, Threshold: -1},
	}
	slo, err := telemetry.NewSLO(db, reg, func() time.Time { return sloNow }, rules)
	if err != nil {
		t.Fatal(err)
	}
	scraper.AfterScrape(func(time.Time) { slo.Evaluate() })
	_, srv, _ := testEnvWith(t, Options{Telemetry: reg, History: db, SLO: slo})

	hit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, err := http.Get(srv.URL + "/api/v1/health")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	hit(5)
	scraper.ScrapeOnce(histT0)
	hit(5)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{SourceRateTPM: 20e6})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	scraper.ScrapeOnce(histT0.Add(10 * time.Second))
	hit(3)
	scraper.ScrapeOnce(histT0.Add(20 * time.Second))

	rangeURL := func(metric string, extra url.Values) string {
		v := url.Values{
			"metric": {metric},
			"start":  {histT0.Add(-time.Minute).Format(time.RFC3339)},
			"end":    {histT0.Add(time.Minute).Format(time.RFC3339)},
			"step":   {"10s"},
			"agg":    {"max"},
		}
		for k, vs := range extra {
			v[k] = vs
		}
		return srv.URL + "/api/v1/query_range?" + v.Encode()
	}

	// Cumulative per-route latency observation count, downsampled.
	qr := getDecode[QueryRangeResponse](t, rangeURL("caladrius_http_request_duration_seconds_count", url.Values{"route": {"/api/v1/health"}}), http.StatusOK)
	if len(qr.Points) == 0 {
		t.Fatal("query_range returned no latency-count points")
	}
	if last := qr.Points[len(qr.Points)-1].V; last < 13 {
		t.Errorf("final health observation count = %g, want ≥ 13", last)
	}
	if qr.Selector["route"] != "/api/v1/health" || qr.Agg != "max" || qr.Step != "10s" {
		t.Errorf("echoed query = %+v", qr)
	}

	// The scraper-derived p95 series exists for the health route.
	p95 := getDecode[QueryRangeResponse](t, rangeURL(telemetry.QuantileSeries("caladrius_http_request_duration_seconds", 0.95), url.Values{"route": {"/api/v1/health"}}), http.StatusOK)
	if len(p95.Points) == 0 {
		t.Fatal("query_range returned no derived p95 points")
	}

	// A metric that never existed answers 200 with an empty series, not
	// an error — dashboards poll idle series constantly.
	empty := getDecode[QueryRangeResponse](t, rangeURL("caladrius_never_observed", nil), http.StatusOK)
	if empty.Points == nil || len(empty.Points) != 0 {
		t.Errorf("unknown metric points = %#v, want empty non-null", empty.Points)
	}

	// Both deliberately tripped rules fire.
	alerts := getDecode[AlertsResponse](t, srv.URL+"/api/v1/alerts", http.StatusOK)
	if len(alerts.Alerts) != 2 {
		t.Fatalf("alerts = %+v, want 2", alerts.Alerts)
	}
	for _, a := range alerts.Alerts {
		if a.State != "firing" {
			t.Errorf("rule %s state = %s, want firing", a.Rule, a.State)
		}
		if a.Since == nil || a.Value == nil {
			t.Errorf("rule %s missing since/value: %+v", a.Rule, a)
		}
	}
	// Each later scrape's evaluation sustained the alert without another
	// transition, and a second read adds none either.
	getDecode[AlertsResponse](t, srv.URL+"/api/v1/alerts", http.StatusOK)
	fired := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "traffic-seen", "to": "firing"})
	if got := fired.Value(); got != 1 {
		t.Errorf("traffic-seen firing transitions = %g, want 1", got)
	}

	// Parameter validation answers 400 without touching the store.
	bad := []string{
		"",                    // missing metric
		"metric=x&start=nope", // unparseable time
		"metric=x&window=-5s", // non-positive window
		"metric=x&step=0s",    // non-positive step
		"metric=x&agg=bogus",  // unknown aggregation
		"metric=x&merge=nonsense",
		"metric=x&start=2026-08-05T13:00:00Z&end=2026-08-05T12:00:00Z", // start after end
	}
	for _, q := range bad {
		resp, err := http.Get(srv.URL + "/api/v1/query_range?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q status = %d, want 400", q, resp.StatusCode)
		}
	}
	resp2, err := http.Post(srv.URL+"/api/v1/query_range?metric=x", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST query_range status = %d, want 405", resp2.StatusCode)
	}
}

// TestQueryRangeEndBeyondNanosecondRange: an end past 2262, the last
// instant int64 Unix nanoseconds hold, still answers with the history
// before it.
func TestQueryRangeEndBeyondNanosecondRange(t *testing.T) {
	db := tsdb.New(0)
	h := db.Handle("caladrius_probe", nil)
	for i := 1; i <= 4; i++ {
		h.Append(histT0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	_, srv, _ := testEnvWith(t, Options{History: db})
	query := func(end string) []RangePoint {
		v := url.Values{
			"metric": {"caladrius_probe"},
			"start":  {strconv.FormatInt(histT0.Unix(), 10)},
			"end":    {end},
			"step":   {"1000h"},
			"agg":    {"sum"},
		}
		return getDecode[QueryRangeResponse](t, srv.URL+"/api/v1/query_range?"+v.Encode(), http.StatusOK).Points
	}
	far := query("9999-01-01T00:00:00Z")
	near := query(histT0.Add(time.Hour).Format(time.RFC3339))
	if len(far) != 1 || far[0].V != 10 || !reflect.DeepEqual(far, near) {
		t.Errorf("points to 9999 = %+v, to an hour later = %+v; want the same one bucket summing to 10", far, near)
	}
}

func TestParseRangeTime(t *testing.T) {
	if ts, err := parseRangeTime("2026-08-05T12:00:00Z"); err != nil || !ts.Equal(histT0) {
		t.Errorf("RFC3339 = %v, %v", ts, err)
	}
	if ts, err := parseRangeTime("1786017600"); err != nil || ts.Unix() != 1786017600 {
		t.Errorf("unix seconds = %v, %v", ts, err)
	}
	if ts, err := parseRangeTime("1786017600.5"); err != nil || ts.Nanosecond() != 5e8 {
		t.Errorf("fractional unix seconds = %v, %v", ts, err)
	}
	for _, s := range []string{"", "NaN", "+Inf", "yesterday"} {
		if _, err := parseRangeTime(s); err == nil {
			t.Errorf("parseRangeTime(%q) accepted", s)
		}
	}
}
