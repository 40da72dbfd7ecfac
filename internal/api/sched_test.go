package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caladrius/internal/audit"
	"caladrius/internal/core"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/sched"
	"caladrius/internal/telemetry"
	"caladrius/internal/topology"
)

// The scheduler e2e surface: these tests drive the full HTTP stack
// with a real scheduler attached, covering the three perf layers the
// scheduler adds — coalescing (duplicate requests, one model run),
// admission control (429 + Retry-After with per-tenant fairness) and
// calibration-cache invalidation through tracker change hooks.

type schedEnv struct {
	deployment
	svc *Service
	srv *httptest.Server
	led *audit.Ledger
}

// newSchedEnv serves the simulated word-count deployment with an audit
// ledger through the given scheduler.
func newSchedEnv(t *testing.T, scheduler *sched.Scheduler) schedEnv {
	t.Helper()
	d := newDeployment(t)
	svc, srv := d.serve(t, Options{Scheduler: scheduler})
	return schedEnv{deployment: d, svc: svc, srv: srv, led: svc.audit}
}

func postJSONTenant(t *testing.T, url, tenant string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCoalescedRequestsOneModelRun: concurrent identical sync predicts
// share one model run — the audit ledger holds exactly one record.
func TestCoalescedRequestsOneModelRun(t *testing.T) {
	scheduler := sched.New(sched.Options{Workers: 1, QueueDepth: 32})
	defer scheduler.Close()
	env := newSchedEnv(t, scheduler)

	// Occupy the single worker so every request below is concurrently
	// pending when coalescing decides.
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := scheduler.Submit(context.Background(), sched.Request{Topology: "blk", Kind: "test", Tenant: "blk"},
		func(ctx context.Context) (any, error) { close(started); <-release; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-started

	const clients = 6
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	req := PerformanceRequest{SourceRateTPM: 30e6}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, env.srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", req)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	// Wait until all six are pending in the scheduler: one leader
	// queued, five coalesced onto it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := scheduler.Stats()
		if st.Coalesced >= clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	blocker.Wait(context.Background())
	wg.Wait()
	for i, code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("request %d status = %d; want 200", i, code)
		}
	}
	if n := env.led.Len(); n != 1 {
		t.Fatalf("audit ledger holds %d model runs for %d identical requests; want exactly 1", n, clients)
	}
	st := scheduler.Stats()
	if st.Coalesced != clients-1 {
		t.Fatalf("Stats.Coalesced = %d; want %d", st.Coalesced, clients-1)
	}
}

// TestSaturationSheddingFairness drives the service into saturation
// from one tenant and verifies the 429 + Retry-After shedding contract
// with per-tenant fairness: the flooding tenant is shed once over its
// fair share while another tenant's request is still admitted.
func TestSaturationSheddingFairness(t *testing.T) {
	scheduler := sched.New(sched.Options{Workers: 1, QueueDepth: 2})
	defer scheduler.Close()
	env := newSchedEnv(t, scheduler)

	release := make(chan struct{})
	started := make(chan struct{})
	// The blocker runs as tenant "hog", so hog already owns the worker
	// when its flood arrives.
	blocker, err := scheduler.Submit(context.Background(), sched.Request{Topology: "blk", Kind: "test", Tenant: "hog"},
		func(ctx context.Context) (any, error) { close(started); <-release; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Six distinct hog requests (different rates — no coalescing).
	// With depth 2, exactly 2 enqueue and 4 are shed, regardless of
	// arrival order: admissions only happen while the queue is below
	// depth, and every later hog request is over fair share.
	const flood = 6
	var wg sync.WaitGroup
	type outcome struct {
		status     int
		retryAfter string
	}
	outcomes := make([]outcome, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSONTenant(t, env.srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", "hog",
				PerformanceRequest{SourceRateTPM: float64(20e6 + i)})
			resp.Body.Close()
			outcomes[i] = outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	// Wait until the flood has fully resolved into 2 queued + 4 shed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := scheduler.Stats()
		if st.Queued >= 2 && st.Sheds >= flood-2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flood never saturated the queue: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is deep and hog is over its share — but a different
	// tenant is under its fair share and must still be admitted.
	var fairWG sync.WaitGroup
	fairWG.Add(1)
	var fairStatus int
	go func() {
		defer fairWG.Done()
		resp := postJSONTenant(t, env.srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", "tenant-b",
			PerformanceRequest{SourceRateTPM: 31e6})
		resp.Body.Close()
		fairStatus = resp.StatusCode
	}()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if scheduler.Stats().Queued >= 3 {
			break // tenant-b's run is in the queue
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant-b was never admitted: %+v", scheduler.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	blocker.Wait(context.Background())
	wg.Wait()
	fairWG.Wait()

	var ok200, shed429 int
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
			if o.retryAfter == "" {
				t.Errorf("shed request %d carries no Retry-After header", i)
			}
		default:
			t.Errorf("request %d status = %d; want 200 or 429", i, o.status)
		}
	}
	if ok200 != 2 || shed429 != flood-2 {
		t.Fatalf("flood outcomes: %d ok, %d shed; want 2 ok, %d shed", ok200, shed429, flood-2)
	}
	if fairStatus != http.StatusOK {
		t.Fatalf("under-fair-share tenant-b status = %d; want 200 (not starved)", fairStatus)
	}
	// The outcomes are visible on the sched endpoint.
	resp, err := http.Get(env.srv.URL + "/api/v1/sched")
	if err != nil {
		t.Fatal(err)
	}
	sr := decode[SchedResponse](t, resp, http.StatusOK)
	if sr.Scheduler.Sheds != uint64(flood-2) {
		t.Fatalf("sched endpoint Sheds = %d; want %d", sr.Scheduler.Sheds, flood-2)
	}
	if sr.Scheduler.QueueLimit != 2 || sr.Scheduler.Workers != 1 {
		t.Fatalf("sched endpoint shape = %+v", sr.Scheduler)
	}
}

// TestTrackerUpdateEvictsExactlyChangedTopology: a tracker update
// (packing-plan change) evicts the updated topology's cache entry and
// no other, and the next predict recalibrates fresh.
func TestTrackerUpdateEvictsExactlyChangedTopology(t *testing.T) {
	env := newSchedEnv(t, nil)

	// Warm word-count's entry, plus a synthetic sibling entry that must
	// survive word-count's update untouched.
	resp := postJSON(t, env.srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{SourceRateTPM: 30e6})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	env.svc.calcache.Store("sibling", 1, env.cfg.CalibrationLookback, &core.TopologyModel{})
	if env.svc.calcache.Len() != 2 {
		t.Fatalf("cache entries = %d; want 2", env.svc.calcache.Len())
	}

	// Re-pack word-count onto 4 containers — a packing-plan change.
	top, err := heron.WordCountTopology(8, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := topology.RoundRobinPack(top, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.tr.Update(top, plan); err != nil {
		t.Fatal(err)
	}

	if _, ok := env.svc.calcache.Lookup("sibling", 1, env.cfg.CalibrationLookback); !ok {
		t.Fatal("sibling entry wrongly evicted by word-count's update")
	}
	if env.svc.calcache.Len() != 1 {
		t.Fatalf("cache entries after update = %d; want 1 (only sibling)", env.svc.calcache.Len())
	}

	// The next predict must recalibrate (fresh calibration, not cache).
	resp2 := postJSON(t, env.srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{SourceRateTPM: 30e6})
	decode[PerformanceResponse](t, resp2, http.StatusOK)
	recs := env.led.List(audit.Filter{Topology: "word-count", Limit: 10})
	if len(recs) != 2 {
		t.Fatalf("audit records = %d; want 2", len(recs))
	}
	// List returns newest first: the post-update run recalibrated.
	if recs[0].CachedCalibration {
		t.Fatal("post-update predict was marked cache-served; want fresh calibration")
	}

	// A third, unchanged predict is cache-served and audited as such.
	resp3 := postJSON(t, env.srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{SourceRateTPM: 30e6})
	decode[PerformanceResponse](t, resp3, http.StatusOK)
	recs = env.led.List(audit.Filter{Topology: "word-count", Limit: 10})
	if !recs[0].CachedCalibration {
		t.Fatal("warm predict not marked cache-served in the audit ledger")
	}
}

// TestTrackerRemoveEvictsEntry: removing a topology drops its cache
// entry through the same change hook.
func TestTrackerRemoveEvictsEntry(t *testing.T) {
	svc, srv, _ := testEnv(t)
	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", PerformanceRequest{SourceRateTPM: 30e6})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	if svc.calcache.Len() != 1 {
		t.Fatalf("cache entries = %d; want 1", svc.calcache.Len())
	}
	if err := svc.tracker.Remove("word-count"); err != nil {
		t.Fatal(err)
	}
	if svc.calcache.Len() != 0 {
		t.Fatal("removed topology's cache entry survived")
	}
}

// TestAsyncJobThroughScheduler: async jobs complete through the
// scheduler's completion callback, not a dedicated goroutine.
func TestAsyncJobThroughScheduler(t *testing.T) {
	scheduler := sched.New(sched.Options{Workers: 2, QueueDepth: 16})
	defer scheduler.Close()
	env := newSchedEnv(t, scheduler)
	resp := postJSON(t, env.srv.URL+"/api/v1/model/topology/word-count/performance", PerformanceRequest{SourceRateTPM: 30e6})
	accepted := decode[map[string]any](t, resp, http.StatusAccepted)
	jobID, _ := accepted["job_id"].(string)
	if jobID == "" {
		t.Fatalf("no job id in %v", accepted)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		jr, err := http.Get(env.srv.URL + "/api/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		job := decode[Job](t, jr, http.StatusOK)
		if job.Status == JobDone {
			break
		}
		if job.Status == JobFailed {
			t.Fatalf("job failed: %s", job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if scheduler.Stats().Runs == 0 {
		t.Fatal("async job did not run through the scheduler")
	}
}

// findSpan returns the first span called name in the tree.
func findSpan(spans []telemetry.SpanJSON, name string) *telemetry.SpanJSON {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if sp := findSpan(spans[i].Children, name); sp != nil {
			return sp
		}
	}
	return nil
}

// TestShedRunsLeaveModelCached: with the scheduler saturated, a forced
// calibrate and a model inspection are both shed as 429 + Retry-After
// before any model work — in particular before the calibrate's
// eviction, so the next predict still finds the model cached instead
// of paying a cold calibration the overload would make worse.
func TestShedRunsLeaveModelCached(t *testing.T) {
	scheduler := sched.New(sched.Options{Workers: 1, QueueDepth: 1})
	defer scheduler.Close()
	env := newSchedEnv(t, scheduler)
	base := env.srv.URL + "/api/v1/model/topology/word-count/"

	decode[PerformanceResponse](t, postJSON(t, base+"performance?sync=true", PerformanceRequest{SourceRateTPM: 20e6}), http.StatusOK)
	warm := getDecode[ModelResponse](t, base+"model", http.StatusOK)

	// Pin the worker and fill the queue, all as tenant "hog".
	release, started := make(chan struct{}), make(chan struct{})
	blocker, err := scheduler.Submit(context.Background(), sched.Request{Topology: "blk", Kind: "test", Tenant: "hog"},
		func(context.Context) (any, error) { close(started); <-release; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := scheduler.Submit(context.Background(), sched.Request{Topology: "blk", Kind: "test", Tenant: "hog"},
		func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}

	for _, shed := range []struct{ method, path string }{
		{"POST", "calibrate?sync=true"},
		{"POST", "calibrate"},
		{"GET", "model"},
	} {
		resp := requestAs(t, "hog", shed.method, base+shed.path, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s %s under saturation: status %d, Retry-After %q; want 429 with a hint",
				shed.method, shed.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if n := env.svc.calcache.Len(); n != 1 {
		t.Fatalf("calibration cache holds %d models after shed calibrates, want 1 (a shed run evicted it)", n)
	}
	close(release)
	blocker.Wait(context.Background())
	queued.Wait(context.Background())

	resp := postJSON(t, base+"performance?sync=true", PerformanceRequest{SourceRateTPM: 21e6})
	decode[PerformanceResponse](t, resp, http.StatusOK)
	tj := getDecode[telemetry.TraceJSON](t, env.srv.URL+"/api/v1/jobs/"+resp.Header.Get(TraceHeader)+"/trace", http.StatusOK)
	if sp := findSpan(tj.Spans, "calibrate"); sp == nil || sp.Attrs["cache"] != "hit" {
		t.Errorf("predict after shed calibrates: calibrate span = %+v, want cache=hit", sp)
	}

	// The inspection is a scheduled, traced run like any other, and its
	// warm answer is what it was before it went through the scheduler.
	mresp, err := http.Get(base + "model")
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[ModelResponse](t, mresp, http.StatusOK); !reflect.DeepEqual(got, warm) {
		t.Errorf("warm model answer changed:\n got %+v\nwant %+v", got, warm)
	}
	mt := getDecode[telemetry.TraceJSON](t, env.srv.URL+"/api/v1/jobs/"+mresp.Header.Get(TraceHeader)+"/trace", http.StatusOK)
	if len(mt.Spans) != 1 || mt.Spans[0].Name != "model" || findSpan(mt.Spans, "queue-wait") == nil {
		t.Errorf("model inspection trace = %+v, want a \"model\" root with a queue-wait span", mt.Spans)
	}
}

// gatedProvider counts the calibration fetches of one component and
// holds each until release is closed, so a test decides how many
// requests are in flight while a calibration runs.
type gatedProvider struct {
	metrics.Provider
	component string
	fetches   atomic.Int64
	release   chan struct{}
}

func (p *gatedProvider) ComponentWindows(topology, component string, start, end time.Time) ([]metrics.Window, error) {
	if component == p.component {
		p.fetches.Add(1)
		<-p.release
	}
	return p.Provider.ComponentWindows(topology, component, start, end)
}

// TestColdTopologyCalibratesOnce: concurrent, pairwise different
// predict and suggest requests on a cold topology — nothing for the
// scheduler to coalesce — share one calibration through the cache's
// singleflight. The leader reports a miss and an uncached calibration
// to the audit ledger; the rest wait for it and report a cached one.
func TestColdTopologyCalibratesOnce(t *testing.T) {
	const clients = 6
	d := newDeployment(t)
	scheduler := sched.New(sched.Options{Workers: clients, QueueDepth: 32})
	defer scheduler.Close()
	provider := &gatedProvider{Provider: d.provider, component: "splitter", release: make(chan struct{})}
	svc, err := NewService(d.cfg, d.tr, provider, withRequired(t, provider, d.asOf, Options{Scheduler: scheduler}))
	if err != nil {
		t.Fatal(err)
	}
	led := svc.audit
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	base := srv.URL + "/api/v1/model/topology/word-count/"

	var wg sync.WaitGroup
	statuses := make([]int, clients)
	traces := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp *http.Response
			if i%2 == 0 {
				resp = postJSON(t, base+"performance?sync=true", PerformanceRequest{SourceRateTPM: 20e6 + float64(i)*1e6})
			} else {
				resp = postJSON(t, base+"suggest?sync=true", SuggestRequest{SourceRateTPM: 30e6 + float64(i)*1e6})
			}
			resp.Body.Close()
			statuses[i], traces[i] = resp.StatusCode, resp.Header.Get(TraceHeader)
		}(i)
	}
	// Every request has looked the model up and missed: each is now the
	// flight's leader, held in the gated fetch, or about to join it.
	deadline := time.Now().Add(10 * time.Second)
	for svc.calcache.Stats().Misses < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the calibration cache", svc.calcache.Stats().Misses, clients)
		}
		time.Sleep(time.Millisecond)
	}
	close(provider.release)
	wg.Wait()

	if n := provider.fetches.Load(); n != 1 {
		t.Errorf("%d concurrent cold requests ran %d calibrations, want 1", clients, n)
	}
	sources := map[string]int{}
	for i, code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("request %d status = %d, want 200", i, code)
		}
		tj := getDecode[telemetry.TraceJSON](t, srv.URL+"/api/v1/jobs/"+traces[i]+"/trace", http.StatusOK)
		sp := findSpan(tj.Spans, "calibrate")
		if sp == nil {
			t.Fatalf("request %d has no calibrate span", i)
		}
		sources[sp.Attrs["cache"]]++
	}
	// A request that reaches the flight just after it landed leads an
	// empty one and is served from the cache: a hit, not a second run.
	if sources["miss"] != 1 || sources["coalesced"]+sources["hit"] != clients-1 {
		t.Errorf("calibrate span cache attrs = %v, want 1 miss and %d coalesced", sources, clients-1)
	}
	// One lookup per request — the leader's re-check is not a second miss.
	if st := svc.calcache.Stats(); st.Misses != clients || st.Hits != 0 || st.Entries != 1 {
		t.Errorf("calcache stats = %+v, want %d misses, 0 hits, 1 entry", st, clients)
	}
	uncached := 0
	for _, rec := range led.List(audit.Filter{}) {
		if !rec.CachedCalibration {
			uncached++
		}
	}
	if led.Len() != clients || uncached != 1 {
		t.Errorf("audit ledger: %d records, %d with an uncached calibration; want %d and 1", led.Len(), uncached, clients)
	}
}
