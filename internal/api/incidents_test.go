package api

import (
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caladrius/internal/incident"
	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

// testRecorder builds a recorder with a fast CPU profile window, seeded
// with one log record and one span so captures have joinable evidence.
func testRecorder(t *testing.T) *incident.Recorder {
	t.Helper()
	logs := telemetry.NewLogRing(16)
	logs.Append(time.Now(), 0, "http request", "req-seed", []byte("status=200"))
	tracer := telemetry.NewTracer(8, nil)
	tracer.Start("req-seed", "performance").End()
	rec, err := incident.New(incident.Options{
		Dir:        filepath.Join(t.TempDir(), "incidents"),
		Registry:   telemetry.NewRegistry(),
		History:    tsdb.New(time.Hour),
		Logs:       logs,
		Tracer:     tracer,
		Cooldown:   5 * time.Minute,
		CPUProfile: 20 * time.Millisecond,
		Now:        time.Now,
		Logger:     slog.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)
	return rec
}

func TestIncidentsDisabledAnswer404(t *testing.T) {
	_, srv, _ := testEnv(t) // no recorder wired in
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/api/v1/incidents"},
		{http.MethodGet, "/api/v1/incidents/some-id"},
		{http.MethodPost, "/api/v1/incidents/capture"},
	} {
		r, err := http.NewRequest(req.method, srv.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404", req.method, req.path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "-incident-dir") {
			t.Errorf("%s %s: body %q does not hint at -incident-dir", req.method, req.path, body)
		}
	}
}

func TestIncidentCaptureListGetDownload(t *testing.T) {
	_, srv, _ := testEnvWith(t, Options{Incidents: testRecorder(t)})

	// Manual capture returns the finished manifest with download links.
	resp := postJSON(t, srv.URL+"/api/v1/incidents/capture", struct{}{})
	captured := decode[IncidentResponse](t, resp, http.StatusOK)
	if captured.Trigger != incident.TriggerManual || captured.ID == "" {
		t.Fatalf("capture response = %+v", captured)
	}
	if len(captured.ArtifactURLs) != len(captured.Artifacts) || len(captured.Artifacts) == 0 {
		t.Fatalf("artifact urls = %v for %d artifacts", captured.ArtifactURLs, len(captured.Artifacts))
	}

	// The bundle shows up in the listing.
	listResp, err := http.Get(srv.URL + "/api/v1/incidents")
	if err != nil {
		t.Fatal(err)
	}
	listing := decode[IncidentListResponse](t, listResp, http.StatusOK)
	if listing.Count != 1 || len(listing.Incidents) != 1 || listing.Incidents[0].ID != captured.ID {
		t.Fatalf("listing = %+v", listing)
	}

	// GET one manifest.
	oneResp, err := http.Get(srv.URL + "/api/v1/incidents/" + captured.ID)
	if err != nil {
		t.Fatal(err)
	}
	one := decode[IncidentResponse](t, oneResp, http.StatusOK)
	if one.ID != captured.ID || len(one.ArtifactURLs) == 0 {
		t.Fatalf("manifest response = %+v", one)
	}

	// Every advertised artifact link downloads with the right content
	// type and non-empty body.
	for name, link := range one.ArtifactURLs {
		resp, err := http.Get(srv.URL + link)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d, %d bytes", link, resp.StatusCode, len(body))
		}
		want := "application/octet-stream"
		if strings.HasSuffix(name, ".json") {
			want = "application/json"
		}
		if ct := resp.Header.Get("Content-Type"); ct != want {
			t.Errorf("GET %s: Content-Type = %q, want %q", link, ct, want)
		}
	}
}

func TestIncidentBadRequests(t *testing.T) {
	_, srv, _ := testEnvWith(t, Options{Incidents: testRecorder(t)})
	for _, req := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/api/v1/incidents/no-such-id", http.StatusNotFound},
		{http.MethodGet, "/api/v1/incidents/no-such-id/artifacts/logs.json", http.StatusNotFound},
		{http.MethodGet, "/api/v1/incidents/x/bogus/logs.json", http.StatusNotFound},
		{http.MethodGet, "/api/v1/incidents/capture", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/v1/incidents", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/v1/incidents/some-id", http.StatusMethodNotAllowed},
	} {
		r, err := http.NewRequest(req.method, srv.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != req.want {
			t.Errorf("%s %s: status = %d, want %d", req.method, req.path, resp.StatusCode, req.want)
		}
	}

	// Path traversal through the artifact name must not escape the
	// bundle directory.
	rec := testRecorder(t)
	_, srv2, _ := testEnvWith(t, Options{Incidents: rec})
	m, err := rec.CaptureNow()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv2.URL + "/api/v1/incidents/" + m.ID + "/artifacts/..%2f..%2fmanifest.json")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("artifact traversal served a file outside the bundle listing")
	}
}

// TestIncidentTraceHeaderPropagation pins the trace-join contract at the
// HTTP layer: a request with no trace header is assigned one, a sane
// client-supplied header is echoed, and a hostile one is replaced.
func TestIncidentTraceHeaderPropagation(t *testing.T) {
	_, srv, _ := testEnv(t)

	resp, err := http.Get(srv.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	assigned := resp.Header.Get(TraceHeader)
	if !strings.HasPrefix(assigned, "req-") {
		t.Errorf("assigned trace id = %q, want req-N", assigned)
	}

	for header, want := range map[string]string{
		"client-trace-42":        "client-trace-42", // well-formed: echoed
		"bad id!{}":              "",                // hostile: replaced with req-N
		strings.Repeat("x", 100): "",
	} {
		r, err := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/health", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set(TraceHeader, header)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get(TraceHeader)
		if want != "" && got != want {
			t.Errorf("header %q: echoed %q, want %q", header, got, want)
		}
		if want == "" && !strings.HasPrefix(got, "req-") {
			t.Errorf("header %q: echoed %q, want a generated req-N id", header, got)
		}
	}
}
