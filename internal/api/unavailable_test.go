package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"caladrius/internal/config"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/topology"
	"caladrius/internal/tracker"
	"caladrius/internal/tsdb"
)

// downProvider is a metrics backend that is entirely unreachable: every
// fetch fails with ErrUnavailable, as the retrying wrapper reports after
// exhausting its attempts.
type downProvider struct{}

func (downProvider) err() error { return fmt.Errorf("%w: scraper down", metrics.ErrUnavailable) }

func (p downProvider) ComponentWindows(_, _ string, _, _ time.Time) ([]metrics.Window, error) {
	return nil, p.err()
}
func (p downProvider) InstanceWindows(_, _ string, _ int, _, _ time.Time) ([]metrics.Window, error) {
	return nil, p.err()
}
func (p downProvider) SourceRate(_ string, _ []string, _, _ time.Time) ([]tsdb.Point, error) {
	return nil, p.err()
}
func (p downProvider) TopologyBackpressureMs(_ string, _, _ time.Time) ([]tsdb.Point, error) {
	return nil, p.err()
}
func (p downProvider) StreamEmitTotals(_, _ string, _, _ time.Time) (map[string]float64, error) {
	return nil, p.err()
}

// TestProviderUnavailableReturns503 pins the resilience contract at the
// API boundary: when the metrics provider is down, model requests that
// need fresh calibration answer 503 with a Retry-After hint rather than
// a generic 500 — the client's cue to back off and retry.
func TestProviderUnavailableReturns503(t *testing.T) {
	top, err := heron.WordCountTopology(8, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := topology.RoundRobinPack(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 1, 5, 12, 0, 0, 0, time.UTC)
	tr := tracker.New(func() time.Time { return now })
	if err := tr.Register(top, plan); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(config.Default(), tr, downProvider{}, withRequired(t, downProvider{}, now, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	resp := postJSON(t, srv.URL+"/api/v1/model/topology/word-count/calibrate?sync=true", struct{}{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != fmt.Sprint(RetryAfterSeconds) {
		t.Errorf("Retry-After = %q, want %d", got, RetryAfterSeconds)
	}
}
