package api

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caladrius/internal/telemetry"
	"caladrius/internal/usage"
)

// TestPanicRecovery drives panicking handlers through the middleware:
// a panic before any write yields a JSON 500; a panic after the body
// started still counts as a 5xx in the instruments; both increment the
// panic counter, log the stack and leave the in-flight gauge at zero.
func TestPanicRecovery(t *testing.T) {
	reg := telemetry.NewRegistry()
	var logBuf bytes.Buffer
	svc := &Service{tel: reg, logger: slog.New(slog.NewTextHandler(&logBuf, nil)), usage: usage.New(usage.Options{Capacity: 256, Window: 15 * time.Minute})}

	srv := httptest.NewServer(svc.router([]route{
		{"GET", "/api/v1/health", func(*Service, http.ResponseWriter, *http.Request) {
			panic("boom before write")
		}, nil},
		{"GET", "/api/v1/alerts", func(_ *Service, w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"partial":`))
			panic("boom mid-body")
		}, nil},
	}))
	defer srv.Close()

	// Panic before any write: the client sees a proper JSON 500.
	resp, err := http.Get(srv.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[map[string]any](t, resp, http.StatusInternalServerError)
	if body["error"] != "internal server error" {
		t.Errorf("panic body = %v", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("panic content-type = %q", ct)
	}

	// Panic after the header went out: too late to change the client's
	// status, but telemetry records the request as a 5xx.
	resp2, err := http.Get(srv.URL + "/api/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("mid-body panic client status = %d, want 200 (already sent)", resp2.StatusCode)
	}

	if got := reg.Counter("caladrius_http_panics_total", nil).Value(); got != 2 {
		t.Errorf("panics counter = %g, want 2", got)
	}
	for _, route := range []string{"/api/v1/health", "/api/v1/alerts"} {
		c := reg.Counter("caladrius_http_requests_total", telemetry.Labels{"route": route, "class": "5xx"})
		if got := c.Value(); got != 1 {
			t.Errorf("%s 5xx = %g, want 1", route, got)
		}
	}
	if got := reg.Gauge("caladrius_http_in_flight_requests", nil).Value(); got != 0 {
		t.Errorf("in-flight after panics = %g, want 0", got)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "handler panic") || !strings.Contains(logs, "goroutine") {
		t.Errorf("panic log missing message or stack:\n%s", logs)
	}
	// A panic does not cost the request its access-log line, nor earn
	// it a second one.
	if got := strings.Count(logs, `msg="http request"`); got != 2 {
		t.Errorf("access-log lines = %d, want 2 (one per request):\n%s", got, logs)
	}
}
