package soak

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"caladrius/internal/api"
)

// topology is the demo topology model operations hit.
const topology = "word-count"

// RunnerOptions configures a load run.
type RunnerOptions struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8642".
	BaseURL string
	// Client issues the requests.
	Client *http.Client
	// Now is the clock the run deadline and query windows are read
	// from (tests substitute a fake). Default time.Now.
	Now func() time.Time
}

// Runner drives one generated schedule against a live daemon.
type Runner struct {
	sched  *Schedule
	base   string
	client *http.Client
	rec    *Recorder
	now    func() time.Time

	issued atomic.Uint64
}

// NewRunner builds a runner for schedule s.
func NewRunner(s *Schedule, opts RunnerOptions) (*Runner, error) {
	if s == nil || len(s.Events) == 0 {
		return nil, fmt.Errorf("soak: empty schedule")
	}
	if opts.BaseURL == "" || opts.Client == nil {
		return nil, fmt.Errorf("soak: runner needs a base URL and a client")
	}
	r := &Runner{
		sched:  s,
		base:   opts.BaseURL,
		client: opts.Client,
		rec:    NewRecorder(),
		now:    opts.Now,
	}
	if r.now == nil {
		r.now = time.Now
	}
	return r, nil
}

// Issued returns how many requests the runner dispatched — the
// zero-unaccounted soak check compares it against the recorder total.
func (r *Runner) Issued() uint64 { return r.issued.Load() }

// request builds the HTTP request for one scheduled event.
func (r *Runner) request(ctx context.Context, e Event) (*http.Request, error) {
	var req *http.Request
	var err error
	switch e.Op {
	case OpPredict:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			r.base+"/api/v1/model/topology/"+topology+"/performance?sync=true",
			bytes.NewReader([]byte(`{}`)))
	case OpPlan:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			r.base+"/api/v1/model/topology/"+topology+"/suggest?sync=true",
			bytes.NewReader([]byte(`{}`)))
	case OpQueryRange:
		// Window the last five minutes of wall (or fake) time so the
		// query lands on freshly scraped self-monitoring history.
		now := r.now()
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			r.base+"/api/v1/query_range?metric=caladrius_http_requests_total"+
				"&start="+strconv.FormatInt(now.Add(-5*time.Minute).Unix(), 10)+
				"&end="+strconv.FormatInt(now.Add(time.Minute).Unix(), 10)+
				"&step=10s&agg=max&merge=sum", nil)
	case OpAudit:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			r.base+"/api/v1/audit?limit=50", nil)
	case OpUsage:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			r.base+"/api/v1/usage", nil)
	default:
		return nil, fmt.Errorf("soak: unknown op %q", e.Op)
	}
	if err != nil {
		return nil, err
	}
	if e.Op == OpPredict || e.Op == OpPlan {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(api.TenantHeader, e.Tenant)
	return req, nil
}

// issue sends one event and records the outcome.
func (r *Runner) issue(ctx context.Context, e Event) {
	req, err := r.request(ctx, e)
	if err != nil {
		r.rec.Record(e.Op, 0)
		return
	}
	r.issued.Add(1)
	resp, err := r.client.Do(req)
	if err != nil {
		r.rec.Record(e.Op, 0)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	r.rec.Record(e.Op, resp.StatusCode)
}

// Run runs the configured worker population over the event ring until
// the schedule duration elapses, then returns the report. Cancelling
// ctx stops dispatch; in-flight requests still complete and are
// recorded.
func (r *Runner) Run(ctx context.Context) Report {
	r.rec.Start(time.Now())
	deadline := r.now().Add(r.sched.Config.Duration)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < r.sched.Config.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && r.now().Before(deadline) {
				i := next.Add(1) - 1
				e := r.sched.Events[int(i)%len(r.sched.Events)]
				r.issue(ctx, e)
			}
		}()
	}
	wg.Wait()
	r.rec.Finish(time.Now())
	return r.rec.Report()
}
