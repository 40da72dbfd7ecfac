package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"caladrius/internal/daemon"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/workload"
)

// newTestServer stands up the daemon over simulated metrics. Tests
// scrape by hand through the returned daemon's Scraper. The continuous
// profiler is off unless a mutate function supplies one.
func newTestServer(t *testing.T, mutate ...func(*daemon.Config)) (*httptest.Server, *daemon.Daemon) {
	t.Helper()
	const warm = 30 * time.Minute
	dep, err := metrics.DeployWordCount(heron.WordCountOptions{
		SplitterP: 3, CounterP: 8,
		Schedule: workload.StepRate(20e6/60, 45e6/60, warm/2),
	}, 0, int(warm/time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemon.Default()
	cfg.Substrate = dep.Substrate
	cfg.CalibrationLookback = warm
	cfg.LogOutput = io.Discard
	cfg.ProfileInterval = 0
	for _, m := range mutate {
		m(&cfg)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := d.Close(); err != nil {
			t.Error(err)
		}
	})
	return srv, d
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed — the calctl commands write straight to stdout.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestCommands(t *testing.T) {
	srv, _ := newTestServer(t)
	base := []string{"-server", srv.URL}
	ok := [][]string{
		{"health"},
		{"models"},
		{"traffic", "word-count", "-horizon-minutes", "5", "-model", "summary"},
		{"perf", "word-count", "-rate", "30e6", "-p", "splitter=4,counter=8"},
		{"perf", "word-count", "-forecast", "-horizon-minutes", "10"},
		{"model", "word-count"},
		{"graph", "word-count"},
		{"suggest", "word-count", "-rate", "40e6", "-headroom", "0.15"},
		{"query", "word-count", "g.V().hasLabel('stmgr').count()"},
		{"query", "word-count", "-graph", "logical", "g.V().count()"},
		// Runs after the sync requests above, so histograms have
		// observations.
		{"metrics"},
		{"metrics", "-top", "3"},
		{"metrics", "-raw"},
	}
	for _, args := range ok {
		if err := run(append(append([]string{}, base...), args...)); err != nil {
			t.Errorf("calctl %s: %v", strings.Join(args, " "), err)
		}
	}
	// Sync runs trace under the middleware-assigned request id, echoed
	// in the response header — the id `calctl trace` takes.
	resp, err := http.Post(srv.URL+"/api/v1/model/topology/word-count/performance?sync=true",
		"application/json", strings.NewReader(`{"source_rate_tpm": 30000000}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Caladrius-Trace")
	if traceID == "" {
		t.Fatal("sync response missing X-Caladrius-Trace header")
	}
	if err := run(append(append([]string{}, base...), "trace", traceID)); err != nil {
		t.Errorf("calctl trace %s: %v", traceID, err)
	}
}

func TestCommandErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	base := []string{"-server", srv.URL}
	bad := [][]string{
		{},                                       // no command
		{"bogus"},                                // unknown command
		{"traffic"},                              // missing topology
		{"perf"},                                 // missing topology
		{"perf", "word-count", "-p", "x"},        // malformed parallelism
		{"perf", "word-count", "-p", "x=y"},      // non-numeric parallelism
		{"model"},                                // missing arg
		{"graph"},                                // missing arg
		{"suggest"},                              // missing topology
		{"query"},                                // missing topology
		{"query", "word-count"},                  // missing query string
		{"query", "word-count", "g.V().bogus()"}, // server-side query error
		{"job"},                                  // missing id
		{"trace"},                                // missing id
		{"trace", "no-such-trace"},               // 404 from server
		{"perf", "ghost-topology", "-rate", "1"}, // 404 from server
	}
	for _, args := range bad {
		if err := run(append(append([]string{}, base...), args...)); err == nil {
			t.Errorf("calctl %s: expected error", strings.Join(args, " "))
		}
	}
}

func TestAsyncJobFlow(t *testing.T) {
	srv, _ := newTestServer(t)
	// Fire an async request, then poll the job until it resolves.
	if err := run([]string{"-server", srv.URL, "perf", "word-count", "-rate", "10e6", "-sync=false"}); err != nil {
		t.Fatalf("async submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := run([]string{"-server", srv.URL, "job", "job-1"})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never resolved: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The async job's trace is stored under the job id.
	if err := run([]string{"-server", srv.URL, "trace", "job-1"}); err != nil {
		t.Fatalf("trace job-1: %v", err)
	}
}
