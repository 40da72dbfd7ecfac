package main

import (
	"net/http"
	"strings"
	"testing"

	"caladrius/internal/api"
)

// TestUsageCommand drives two tenants through the tenant header, then
// checks the ranked table and the scheduler footer.
func TestUsageCommand(t *testing.T) {
	srv, _ := newTestServer(t)
	predict := func(tenant string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/v1/model/topology/word-count/performance?sync=true", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict as %s = %d", tenant, resp.StatusCode)
		}
	}
	for i := 0; i < 3; i++ {
		predict("team-a")
	}
	predict("team-b")

	out, err := captureStdout(t, func() error {
		return run([]string{"-server", srv.URL, "usage"})
	})
	if err != nil {
		t.Fatalf("usage: %v\n%s", err, out)
	}
	rows := map[string][]string{}
	var order []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 2 && strings.HasPrefix(f[0], "team-") {
			rows[f[0]] = f
			order = append(order, f[0])
		}
	}
	if strings.Join(order, ",") != "team-a,team-b" {
		t.Fatalf("ranked tenants = %v, want team-a before team-b:\n%s", order, out)
	}
	// tenant, topology, reqs: three requests for team-a, one for team-b.
	if a, b := rows["team-a"], rows["team-b"]; a[1] != "word-count" || a[2] != "3" || b[1] != "word-count" || b[2] != "1" {
		t.Errorf("rows = %v / %v, want word-count with 3 and 1 requests:\n%s", a, b, out)
	}
	if !strings.Contains(out, "ranked by requests") || !strings.Contains(out, "\nscheduler: 4 runs, 0 coalesced, 0 shed (429)") {
		t.Errorf("usage output lacks the header or the scheduler footer:\n%s", out)
	}

	// -n 1 keeps the top principal only.
	out, err = captureStdout(t, func() error {
		return run([]string{"-server", srv.URL, "usage", "-n", "1"})
	})
	if err != nil {
		t.Fatalf("usage -n 1: %v", err)
	}
	if !strings.Contains(out, "team-a") || strings.Contains(out, "team-b") {
		t.Errorf("usage -n 1 should list team-a only:\n%s", out)
	}
}
