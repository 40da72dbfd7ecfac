package api

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
)

// contractEnv is a service with every optional subsystem wired in,
// driven in-process so that a request's counters, usage attribution and
// access-log line are all settled when ServeHTTP returns.
type contractEnv struct {
	t       *testing.T
	handler http.Handler
	reg     *telemetry.Registry
	acct    *usage.Accountant
	logs    *bytes.Buffer
	sent    int
}

const contractTenant = "contract"

func newContractEnv(t *testing.T) *contractEnv {
	t.Helper()
	reg := telemetry.NewRegistry()
	db := tsdb.New(time.Hour)
	slo, err := telemetry.NewSLO(db, reg, time.Now, []telemetry.Rule{
		{Name: "traffic-seen", Metric: "caladrius_http_requests_total", Agg: tsdb.AggMax, Window: time.Minute, Threshold: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &contractEnv{t: t, reg: reg, logs: &bytes.Buffer{}}
	env.acct = usage.New(usage.Options{Capacity: 32, Window: 15 * time.Minute, Registry: reg})
	srv := auditEnv(t, Options{
		Logger:    slog.New(slog.NewTextHandler(env.logs, nil)),
		Telemetry: reg,
		History:   db,
		SLO:       slo,
		Incidents: testRecorder(t),
		Usage:     env.acct,
		Profiler:  testProfiler(t),
	}).srv
	env.handler = srv.Config.Handler
	return env
}

func (e *contractEnv) do(method, target, body string) *httptest.ResponseRecorder {
	e.t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	req.Header.Set(TenantHeader, contractTenant)
	rec := httptest.NewRecorder()
	e.handler.ServeHTTP(rec, req)
	e.sent++
	return rec
}

// requests sums caladrius_http_requests_total over status classes, per
// route label.
func (e *contractEnv) requests() map[string]float64 {
	out := map[string]float64{}
	for _, m := range e.reg.Snapshot() {
		if m.Name != "caladrius_http_requests_total" {
			continue
		}
		for _, s := range m.Series {
			out[s.Labels["route"]] += *s.Value
		}
	}
	return out
}

// billed is how many requests the contract tenant's principal on
// topology has been charged.
func (e *contractEnv) billed(topology string) uint64 {
	if p := findUsage(e.acct.Snapshot(), contractTenant, topology); p != nil {
		return p.Totals.Requests
	}
	return 0
}

// expectCounted runs fn — one request — and checks that it was counted
// once, under label, and billed once, to the tenant's principal on
// topology.
func (e *contractEnv) expectCounted(what, label, topology string, fn func()) {
	e.t.Helper()
	before, billedBefore := e.requests(), e.billed(topology)
	fn()
	for route, n := range e.requests() {
		want := before[route]
		if route == label {
			want++
		}
		if n != want {
			e.t.Errorf("%s: requests_total{route=%q} = %g, want %g", what, route, n, want)
		}
	}
	if got := e.billed(topology); got != billedBefore+1 {
		e.t.Errorf("%s: principal (%s, %s) billed %d requests, want %d", what, contractTenant, topology, got, billedBefore+1)
	}
}

func jsonError(rec *httptest.ResponseRecorder) string {
	var body struct {
		Error string `json:"error"`
	}
	if rec.Header().Get("Content-Type") != "application/json" || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
		return ""
	}
	return body.Error
}

// TestRouteTableContract drives every row of the route table through
// the full handler: the row's method is served, any other is a JSON
// 405, and either way the request is counted under the row's pattern
// and billed to (tenant, {topology}). Paths no row matches are JSON
// 404s under route="other". Every request is logged exactly once.
func TestRouteTableContract(t *testing.T) {
	env := newContractEnv(t)

	// Real ids for the {id} rows to find.
	var job struct {
		ID string `json:"job_id"`
	}
	rec := env.do("POST", "/api/v1/model/topology/word-count/performance", "{}")
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.ID == "" {
		t.Fatalf("async predict: %d %s", rec.Code, rec.Body)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(env.do("GET", "/api/v1/jobs/"+job.ID, "").Body.String(), `"status":"done"`); {
		if time.Now().After(deadline) {
			t.Fatal("async predict never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if rec = env.do("POST", "/api/v1/model/topology/word-count/performance?sync=true", "{}"); rec.Code != http.StatusOK {
		t.Fatalf("sync predict: %d %s", rec.Code, rec.Body)
	}
	var inc IncidentResponse
	rec = env.do("POST", "/api/v1/incidents/capture", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &inc); err != nil || len(inc.Artifacts) == 0 {
		t.Fatalf("capture: %d %s", rec.Code, rec.Body)
	}
	ids := map[string]string{"jobs": job.ID, "audit": "1", "incidents": inc.ID}

	for _, rt := range routes {
		target := strings.NewReplacer(
			"{topology}", "word-count",
			"{id}", ids[strings.Split(rt.pattern, "/")[3]],
			"{name}", inc.Artifacts[0].Name,
		).Replace(rt.pattern)
		topology := NoTopology
		if strings.Contains(rt.pattern, "{topology}") {
			topology = "word-count"
		}
		body := ""
		switch {
		case strings.HasSuffix(rt.pattern, "/query"):
			target, body = target+"?sync=true", `{"query": "g.V().count()"}`
		case rt.method == "POST":
			target += "?sync=true"
		case rt.pattern == "/api/v1/query_range":
			target += "?metric=caladrius_http_requests_total"
		}
		env.expectCounted(rt.method+" "+target, rt.pattern, topology, func() {
			if rec := env.do(rt.method, target, body); rec.Code/100 != 2 {
				t.Errorf("%s %s: status %d, want 2xx (%s)", rt.method, target, rec.Code, rec.Body)
			}
		})
		for _, wrong := range []string{"GET", "POST", "DELETE"} {
			if wrong == rt.method {
				continue
			}
			env.expectCounted(wrong+" "+target, rt.pattern, topology, func() {
				rec := env.do(wrong, target, "")
				if rec.Code != http.StatusMethodNotAllowed || jsonError(rec) != "use "+rt.method {
					t.Errorf("%s %s: %d %q, want 405 {\"error\":\"use %s\"}", wrong, target, rec.Code, rec.Body, rt.method)
				}
			})
		}
	}

	for _, target := range []string{
		"/somewhere/else",
		"/api/v1/model/traffic/",
		"/api/v1/model/traffic/word-count/bogus",
		"/api/v1/model/topology/word-count",
		"/api/v1/model/topology/word-count/bogus",
		"/api/v1/jobs/",
		"/api/v1/jobs/" + job.ID + "/bogus",
		"/api/v1/audit/",
		"/api/v1/audit/42/bogus",
		"/api/v1/incidents/",
		"/api/v1/incidents/" + inc.ID + "/artifacts/a/b",
		"/api/v1/profiles/bogus",
		"/api/v1/health/",
	} {
		env.expectCounted("GET "+target, otherRoute, NoTopology, func() {
			if rec := env.do("GET", target, ""); rec.Code != http.StatusNotFound || jsonError(rec) == "" {
				t.Errorf("GET %s: %d %q, want a JSON 404", target, rec.Code, rec.Body)
			}
		})
	}
	// ServeMux redirects an unclean path itself; no row sees the request,
	// the middleware still does.
	env.expectCounted("GET /api/v1//health", otherRoute, NoTopology, func() {
		if rec := env.do("GET", "/api/v1//health", ""); rec.Code != http.StatusMovedPermanently {
			t.Errorf("unclean path: status %d, want 301", rec.Code)
		}
	})

	if got := strings.Count(env.logs.String(), `msg="http request"`); got != env.sent {
		t.Errorf("access-log lines = %d for %d requests", got, env.sent)
	}
}

// TestDisabledSubsystemsAnswer404 pins the one disabled-subsystem code
// path: built without its subsystem, every row that needs one — the
// incident and profiler rows, nothing else — answers 404 with the
// subsystem's notice, whatever the method, and is still counted under
// its own label.
func TestDisabledSubsystemsAnswer404(t *testing.T) {
	reg := telemetry.NewRegistry()
	handler := (&Service{tel: reg, logger: slog.New(slog.NewTextHandler(io.Discard, nil)), usage: usage.New(usage.Options{Capacity: 256, Window: 15 * time.Minute})}).Handler()
	optional := 0
	for _, rt := range routes {
		if rt.needs == nil {
			continue
		}
		optional++
		for _, method := range []string{"GET", "POST"} {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(method, strings.NewReplacer("{id}", "1", "{name}", "x").Replace(rt.pattern), nil))
			if rec.Code != http.StatusNotFound || jsonError(rec) != rt.needs.notice {
				t.Errorf("%s %s: %d %q, want 404 %q", method, rt.pattern, rec.Code, rec.Body, rt.needs.notice)
			}
		}
		if got := reg.Counter("caladrius_http_requests_total", telemetry.Labels{"route": rt.pattern, "class": "4xx"}).Value(); got != 2 {
			t.Errorf("%s: 4xx = %g, want 2", rt.pattern, got)
		}
	}
	if optional != 9 {
		t.Errorf("%d rows need an optional subsystem, want the 4 incident and 5 profiler rows", optional)
	}
}

// goldenRouteLabels is every value the `route` label takes. The
// benchmark's preloaded history and operators' saved -history-files
// hold these strings: renaming a pattern orphans their series, so a
// rename has to be made here too, on purpose.
var goldenRouteLabels = []string{
	"/api/v1/alerts",
	"/api/v1/audit",
	"/api/v1/audit/{id}",
	"/api/v1/health",
	"/api/v1/incidents",
	"/api/v1/incidents/capture",
	"/api/v1/incidents/{id}",
	"/api/v1/incidents/{id}/artifacts/{name}",
	"/api/v1/jobs/{id}",
	"/api/v1/jobs/{id}/trace",
	"/api/v1/model/topology/{topology}/calibrate",
	"/api/v1/model/topology/{topology}/graph",
	"/api/v1/model/topology/{topology}/model",
	"/api/v1/model/topology/{topology}/performance",
	"/api/v1/model/topology/{topology}/query",
	"/api/v1/model/topology/{topology}/suggest",
	"/api/v1/model/traffic/{topology}",
	"/api/v1/model/traffic/{topology}/rank",
	"/api/v1/models/traffic",
	"/api/v1/profiles",
	"/api/v1/profiles/baseline",
	"/api/v1/profiles/diff",
	"/api/v1/profiles/flame",
	"/api/v1/profiles/top",
	"/api/v1/query_range",
	"/api/v1/sched",
	"/api/v1/usage",
	"other",
}

// TestRouteLabelsGolden reads the label values back from the registry
// the handler instruments into — every HTTP family pre-registers
// exactly the golden set.
func TestRouteLabelsGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	(&Service{tel: reg}).Handler()
	for _, family := range []string{"caladrius_http_requests_total", "caladrius_http_request_duration_seconds", "caladrius_http_response_bytes_total"} {
		seen := map[string]bool{}
		for _, m := range reg.Snapshot() {
			if m.Name == family {
				for _, s := range m.Series {
					seen[s.Labels["route"]] = true
				}
			}
		}
		var got []string
		for label := range seen {
			got = append(got, label)
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(goldenRouteLabels, "\n") {
			t.Errorf("%s route labels:\n%s\nwant:\n%s", family, strings.Join(got, "\n"), strings.Join(goldenRouteLabels, "\n"))
		}
	}
}

// TestEndpointDocs holds the prose to the table: the package comment's
// endpoint list is exactly the table, and every /api/v1 path README
// mentions is one the table serves (with the method README gives it,
// where it gives one).
func TestEndpointDocs(t *testing.T) {
	table := map[string]bool{}
	mux := http.NewServeMux()
	methodOf := map[string]string{}
	for _, rt := range routes {
		table[rt.method+" "+rt.pattern] = true
		methodOf[rt.pattern] = rt.method
		mux.Handle(rt.pattern, http.NotFoundHandler())
	}

	src, err := os.ReadFile("api.go")
	if err != nil {
		t.Fatal(err)
	}
	pkgComment, _, _ := strings.Cut(string(src), "\npackage api\n")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^//\t(GET|POST)\s+(/api/v1/\S+)`).FindAllStringSubmatch(pkgComment, -1) {
		documented[m[1]+" "+m[2]] = true
	}
	for endpoint := range table {
		if !documented[endpoint] {
			t.Errorf("package comment lacks %q", endpoint)
		}
	}
	for endpoint := range documented {
		if !table[endpoint] {
			t.Errorf("package comment lists %q, which the route table does not serve", endpoint)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	mentions := regexp.MustCompile("(?:(GET|POST) )?(/api/v1/[^\\s'\"`?&|),]+)").FindAllStringSubmatch(string(readme), -1)
	if len(mentions) == 0 {
		t.Fatal("README mentions no endpoint: the check is not looking at what it should")
	}
	for _, m := range mentions {
		method, path := m[1], strings.TrimRight(m[2], ".")
		_, pattern := mux.Handler(&http.Request{Method: "GET", URL: &url.URL{Path: path}})
		switch {
		case pattern == "":
			t.Errorf("README mentions %q, which the route table does not serve", path)
		case method != "" && method != methodOf[pattern]:
			t.Errorf("README says %s %s; the route table says %s", method, path, methodOf[pattern])
		}
	}
}
