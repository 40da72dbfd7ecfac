package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"caladrius/internal/daemon"
	"caladrius/internal/instrument"
)

// TestDashCommand drives traffic, scrapes twice so derived series
// exist, then runs one bounded dashboard refresh against the live
// endpoints.
func TestDashCommand(t *testing.T) {
	srv, d := newTestServer(t)
	scraper := d.Scraper
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	now := time.Now()
	scraper.ScrapeOnce(now.Add(-10 * time.Second))
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	scraper.ScrapeOnce(now)

	args := []string{"-server", srv.URL, "dash", "-iterations", "2", "-interval", "1ms", "-no-clear", "-width", "20"}
	if err := run(args); err != nil {
		t.Errorf("calctl dash: %v", err)
	}
	if err := run([]string{"-server", srv.URL, "dash", "-width", "0"}); err == nil {
		t.Error("dash accepted -width 0")
	}
}

// TestDashSchedulerPanel: the dash renders the scheduler snapshot.
func TestDashSchedulerPanel(t *testing.T) {
	srv, _ := newTestServer(t, func(c *daemon.Config) {
		c.SchedWorkers, c.SchedQueueDepth = 1, 8
	})
	// Drive one model run through the scheduler so the counters move.
	resp, err := http.Post(srv.URL+"/api/v1/model/topology/word-count/performance?sync=true",
		"application/json", strings.NewReader(`{"source_rate_tpm": 30000000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up predict = %d", resp.StatusCode)
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-server", srv.URL, "dash", "-iterations", "1", "-no-clear"})
	})
	if err != nil {
		t.Fatalf("dash: %v", err)
	}
	if !strings.Contains(out, "queue 0/8") || !strings.Contains(out, "runs 1") {
		t.Fatalf("dash missing scheduler snapshot:\n%s", out)
	}
}

func TestBucketQuantileGuards(t *testing.T) {
	buckets := []instrument.BucketJSON{{LE: 1, Count: 5}, {LE: 2, Count: 10}}
	// A zero-count histogram or an empty bucket slice must report 0,
	// not NaN (rank 0/0) — the metrics table prints the result.
	if got := bucketQuantile([]instrument.BucketJSON{{LE: 1}, {LE: 2}}, 0.95); got != 0 {
		t.Errorf("zero-count quantile = %g, want 0", got)
	}
	if got := bucketQuantile(nil, 0.95); got != 0 {
		t.Errorf("empty-buckets quantile = %g, want 0", got)
	}
	if got := bucketQuantile(buckets, 0.5); got <= 0 || got > 1 {
		t.Errorf("p50 = %g, want within (0, 1]", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 1, 2, 3}, 4); len([]rune(got)) != 4 {
		t.Errorf("sparkline = %q, want 4 cells", got)
	}
	// More values than width keeps the most recent ones.
	got := sparkline([]float64{9, 9, 9, 0, 0, 0}, 3)
	if got != "▁▁▁" {
		t.Errorf("truncated sparkline = %q, want flat-low tail", got)
	}
	// A flat series renders the lowest cell, padded to width.
	if got := sparkline([]float64{5, 5}, 4); got != "▁▁  " {
		t.Errorf("flat sparkline = %q", got)
	}
}
