package api

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/profiler"
	"caladrius/internal/profiler/pproftest"
)

// testProfiler builds a profiler that folds synthetic profiles: one
// steady window, then regressed windows filling the diff span.
func testProfiler(t *testing.T) *profiler.Profiler {
	t.Helper()
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	hot := false
	src := func(kind profiler.Kind) ([]byte, error) {
		stacks := map[string]int64{"main;steady": 900, "main;other": 100}
		if hot {
			stacks = map[string]int64{"main;steady": 300, "main;hotNew": 600, "main;other": 100}
		}
		return pproftest.CPUProfile(stacks), nil
	}
	p, err := profiler.New(profiler.Options{
		Registry: instrument.NewRegistry(),
		Interval: 10 * time.Second,
		Source:   src,
		Now:      func() time.Time { return clock },
		Logger:   slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ten captures a window clear the diff's sample floor.
	fill := func() {
		for i := 0; i < 10; i++ {
			if err := p.CaptureOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	hot = true
	for i := 0; i < p.Status().DiffWindows; i++ {
		clock = clock.Add(61 * time.Second)
		fill()
	}
	return p
}

// profilerEnv serves the test deployment with testProfiler wired in.
func profilerEnv(t *testing.T) (*Service, string) {
	t.Helper()
	svc, srv, _ := testEnvWith(t, Options{Profiler: testProfiler(t)})
	return svc, srv.URL
}

func getProfileJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestProfilesEndpoints(t *testing.T) {
	_, url := profilerEnv(t)

	var st profiler.Status
	if resp := getProfileJSON(t, url+"/api/v1/profiles", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	if st.Baseline == nil || !st.Baseline.Auto {
		t.Fatalf("status baseline: %+v", st.Baseline)
	}
	if got := st.TopRegression[profiler.KindCPU]; got < 0.55 || got > 0.65 {
		t.Fatalf("top regression %f, want ~0.6", got)
	}

	var top ProfileTopResponse
	if resp := getProfileJSON(t, url+"/api/v1/profiles/top?kind=cpu&n=5", &top); resp.StatusCode != http.StatusOK {
		t.Fatalf("top: %d", resp.StatusCode)
	}
	if len(top.Functions) == 0 || top.Functions[0].Function != "hotNew" {
		t.Fatalf("top functions: %+v", top.Functions)
	}

	var diff ProfileDiffResponse
	if resp := getProfileJSON(t, url+"/api/v1/profiles/diff", &diff); resp.StatusCode != http.StatusOK {
		t.Fatalf("diff: %d", resp.StatusCode)
	}
	if diff.Baseline == nil || diff.Diff == nil || len(diff.Diff.Entries) == 0 {
		t.Fatalf("diff payload: %+v", diff)
	}
	if diff.Diff.Entries[0].Function != "hotNew" {
		t.Fatalf("top regression %q, want hotNew", diff.Diff.Entries[0].Function)
	}

	var flame ProfileFlameResponse
	if resp := getProfileJSON(t, url+"/api/v1/profiles/flame?kind=cpu", &flame); resp.StatusCode != http.StatusOK {
		t.Fatalf("flame: %d", resp.StatusCode)
	}
	if len(flame.Stacks) == 0 || !strings.Contains(flame.Stacks[0].Stack, "main;") {
		t.Fatalf("flame stacks: %+v", flame.Stacks)
	}

	// Re-baseline over POST zeroes the regression.
	resp, err := http.Post(url+"/api/v1/profiles/baseline", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var meta profiler.BaselineMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || meta.Auto {
		t.Fatalf("baseline POST: %d auto=%v", resp.StatusCode, meta.Auto)
	}
	if resp := getProfileJSON(t, url+"/api/v1/profiles/diff", &diff); resp.StatusCode != http.StatusOK {
		t.Fatalf("diff after rebaseline: %d", resp.StatusCode)
	}
	if diff.Diff.TopDelta() > 0.01 {
		t.Fatalf("delta %f after re-baseline, want ~0", diff.Diff.TopDelta())
	}
}

func TestProfilesValidation(t *testing.T) {
	_, url := profilerEnv(t)
	cases := map[string]int{
		"/api/v1/profiles/top?kind=bogus": http.StatusBadRequest,
		"/api/v1/profiles/top?n=-3":       http.StatusBadRequest,
		"/api/v1/profiles/top?foo=1":      http.StatusBadRequest,
		"/api/v1/profiles/nope":           http.StatusNotFound,
		"/api/v1/profiles/baseline":       http.StatusMethodNotAllowed,
	}
	for path, want := range cases {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestProfilesDisabled: every profiles route answers 404 with a clear
// message when the daemon runs without a profiler.
func TestProfilesDisabled(t *testing.T) {
	_, srv, _ := testEnvWith(t, Options{})
	for _, path := range []string{
		"/api/v1/profiles",
		"/api/v1/profiles/top",
		"/api/v1/profiles/diff",
		"/api/v1/profiles/flame",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "profiler disabled") {
			t.Fatalf("%s: body %q lacks disabled notice", path, body)
		}
	}
}
