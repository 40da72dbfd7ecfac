package main

import (
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"caladrius/internal/api"
	"caladrius/internal/daemon"
	"caladrius/internal/incident"
)

func TestIncidentsCommand(t *testing.T) {
	srv, d := newTestServer(t, func(c *daemon.Config) {
		c.IncidentDir = filepath.Join(t.TempDir(), "incidents")
	})
	rec := d.Recorder
	// One traced model run: its access-log line and its span share the
	// trace id, so the bundle can join them.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.TraceHeader, "req-seed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed predict = %d", resp.StatusCode)
	}
	base := []string{"-server", srv.URL}
	runWith := func(args ...string) (string, error) {
		return captureStdout(t, func() error {
			return run(append(append([]string{}, base...), args...))
		})
	}

	out, err := runWith("incidents")
	if err != nil {
		t.Fatalf("incidents (empty): %v", err)
	}
	if !strings.Contains(out, "no incidents captured") {
		t.Errorf("empty listing = %q", out)
	}

	if _, err := runWith("incidents", "capture"); err != nil {
		t.Fatalf("incidents capture: %v", err)
	}
	list := rec.List()
	if len(list) != 1 {
		t.Fatalf("bundles after capture = %d", len(list))
	}
	id := list[0].ID

	out, err = runWith("incidents")
	if err != nil {
		t.Fatalf("incidents list: %v", err)
	}
	if !strings.Contains(out, id) || !strings.Contains(out, "manual") {
		t.Errorf("listing = %q", out)
	}

	out, err = runWith("incidents", "show", id)
	if err != nil {
		t.Fatalf("incidents show: %v", err)
	}
	for _, want := range []string{
		"incident " + id,
		"trigger: manual",
		"joined:  req-seed",
		incident.ArtifactCPU,
		incident.ArtifactLogs,
		"/api/v1/incidents/" + id + "/artifacts/",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}

	out, err = runWith("incidents", "-raw")
	if err != nil {
		t.Fatalf("incidents -raw: %v", err)
	}
	if !strings.Contains(out, `"count"`) {
		t.Errorf("raw listing = %q", out)
	}

	// Usage errors.
	for _, args := range [][]string{
		{"incidents", "bogus"},
		{"incidents", "show"},
		{"incidents", "show", "no-such-id"},
	} {
		if _, err := runWith(args...); err == nil {
			t.Errorf("calctl %s: expected error", strings.Join(args, " "))
		}
	}
}

func TestIncidentsCommandDegraded(t *testing.T) {
	srv, _ := newTestServer(t)
	out, err := captureStdout(t, func() error {
		return run([]string{"-server", srv.URL, "incidents"})
	})
	if err != nil {
		t.Fatalf("incidents against recorder-less daemon: %v", err)
	}
	if !strings.Contains(out, "incident recorder disabled") {
		t.Errorf("degraded output = %q", out)
	}
	if err := run([]string{"-server", srv.URL, "incidents", "show", "x"}); err == nil {
		t.Error("incidents show against recorder-less daemon: expected error")
	}
}
