package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDefaults(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if cfg.APIAddr != ":8642" || len(cfg.TrafficModels) != 2 {
		t.Errorf("defaults = %+v", cfg)
	}
	// The only statement of the fetch policy's settable defaults: the
	// retry layer takes what it is given.
	if cfg.FetchRetries != 2 || cfg.FetchTimeout != 10*time.Second {
		t.Errorf("fetch defaults = %d retries, %s timeout; want 2, 10s", cfg.FetchRetries, cfg.FetchTimeout)
	}
}

func TestParseFull(t *testing.T) {
	src := `
api:
  addr: "127.0.0.1:9999"
metrics:
  window_seconds: 30
traffic_models:
  - name: prophet
    options:
      changepoints: 20
      ridge: 0.5
  - name: summary
    options: {stat: median}
calibration:
  warmup_windows: 2
  lookback_minutes: 90
usage:
  topk: 64
  window_seconds: 300
`
	cfg, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.APIAddr != "127.0.0.1:9999" {
		t.Errorf("addr = %q", cfg.APIAddr)
	}
	if cfg.MetricsWindow != 30*time.Second {
		t.Errorf("window = %s", cfg.MetricsWindow)
	}
	if len(cfg.TrafficModels) != 2 {
		t.Fatalf("models = %+v", cfg.TrafficModels)
	}
	if cfg.TrafficModels[0].Name != "prophet" || cfg.TrafficModels[0].Options["changepoints"] != int64(20) {
		t.Errorf("prophet = %+v", cfg.TrafficModels[0])
	}
	if cfg.TrafficModels[1].Options["stat"] != "median" {
		t.Errorf("summary = %+v", cfg.TrafficModels[1])
	}
	if cfg.CalibrationWarmup != 2 || cfg.CalibrationLookback != 90*time.Minute {
		t.Errorf("calibration = %+v", cfg)
	}
	if cfg.UsageTopK != 64 || cfg.UsageWindow != 5*time.Minute {
		t.Errorf("usage = %+v", cfg)
	}
}

// Usage accounting has no off-switch: the smallest cap is one
// principal, and a 0 is refused with the reason.
func TestParseUsageSection(t *testing.T) {
	cfg, err := Parse("usage:\n  topk: 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UsageTopK != 1 || cfg.UsageWindow != Default().UsageWindow {
		t.Errorf("usage = %+v", cfg)
	}
	if _, err := Parse("usage:\n  topk: 0\n"); err == nil || !strings.Contains(err.Error(), "always on") {
		t.Errorf("usage.topk 0: error %v, want one saying accounting is always on", err)
	}
}

func TestParseProfilerSection(t *testing.T) {
	cfg, err := Parse("profiler:\n  interval_seconds: 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ProfileInterval != 0 {
		t.Errorf("interval = %s, want 0 (disabled)", cfg.ProfileInterval)
	}
	cfg, err = Parse("profiler:\n  interval_seconds: 0.3\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ProfileInterval != 300*time.Millisecond {
		t.Errorf("interval = %s, want 300ms", cfg.ProfileInterval)
	}
	// The interval is the section's one key: the profiler's own
	// defaults tune the rest.
	if _, err := Parse("profiler:\n  windows: 8\n"); err == nil || !strings.Contains(err.Error(), "unknown key profiler.windows (keys of profiler: interval_seconds)") {
		t.Errorf("profiler.windows: error %v, want an unknown key", err)
	}
}

func TestParsePartialKeepsDefaults(t *testing.T) {
	cfg, err := Parse("api:\n  addr: \":1\"\n")
	if err != nil {
		t.Fatal(err)
	}
	def := Default()
	if cfg.APIAddr != ":1" {
		t.Errorf("addr = %q", cfg.APIAddr)
	}
	if cfg.MetricsWindow != def.MetricsWindow || len(cfg.TrafficModels) != len(def.TrafficModels) {
		t.Errorf("defaults lost: %+v", cfg)
	}
}

// parseErrorCases are inputs Parse must refuse, each with a fragment of
// the message; FuzzConfigParse starts from them.
var parseErrorCases = []struct {
	src  string
	frag string
}{
	{"api: 5", "api is int64, want mapping"},
	{"api:\n  addr: 99", "api.addr is int64, want string"},
	{"metrics:\n  window_seconds: no", "metrics.window_seconds is string, want number"},
	{"traffic_models: scalar", "want list"},
	{"traffic_models:\n  - 5", "want mapping"},
	{"traffic_models:\n  - options: {}", "missing name"},
	{"traffic_models:\n  - name: 5", "traffic_models[0].name is int64, want string"},
	{"traffic_models:\n  - name: x\n    options: 5", "want mapping"},
	{"traffic_models: []", "no traffic models"},
	// Keys whose values became constants are refused, not ignored.
	{"api:\n  request_timeout_seconds: 30", "unknown key api.request_timeout_seconds (keys of api: addr)"},
	{"metrics:\n  window_seconds: 0", "metrics.window_seconds is 0s"},
	{"calibration:\n  warmup_windows: -2", "calibration.warmup_windows is -2, want at least 0"},
	{"calibration:\n  lookback_minutes: 0", "calibration.lookback_minutes is 0s"},
	{"api:\n  addr: ''", `api.addr (-addr) is "" (0 characters), want at least 1`},
	{"profiling:\n  mutex_fraction: 100", `unknown section "profiling"`},
	{"fetch:\n  backoff_ms: 50", "unknown key fetch.backoff_ms (keys of fetch: retries, timeout_seconds)"},
	{"usage:\n  topk: -1", "usage.topk (-usage-topk) is -1"},
	{"usage:\n  window_seconds: 0", "usage.window_seconds (-usage-window) is 0s"},
	{"profiler:\n  interval_seconds: -1", "profiler.interval_seconds (-profile-interval) is -1s"},
	{"profiler:\n  interval_seconds: 0.25", "profiler.interval_seconds (-profile-interval) is 250ms, want 0 or longer than the profiler's 250ms CPU window"},
	{"profiler:\n  topk: 20", "unknown key profiler.topk"},
	{"profiler:\n  regression_delta: 0.2", "unknown key profiler.regression_delta"},
	{"sched:\n  queue_depth: 0", "sched.queue_depth (-sched-queue) is 0, want at least 1: model-run scheduler admission queue depth"},
	// What the per-key parse blocks this table replaced let through.
	{"sched:\n  queue_dept: 3", "unknown key sched.queue_dept (keys of sched: workers, queue_depth, cache_ttl_minutes)"},
	{"bogus: 1", `unknown section "bogus" (sections: traffic_models, api, metrics,`},
	{"sched:\n  workers: 2.7", "sched.workers is 2.7, want a whole number"},
	{"fetch:\n  retries: -0.5", "fetch.retries is -0.5, want a whole number"},
	{"usage:\n  topk: 1e30", "usage.topk is 1e+30, want a whole number"},
	{"sched:\n  cache_ttl_minutes: 1e30", "sched.cache_ttl_minutes is 1e+30, too large for a duration"},
	{"sched:\n  queue_depth: NaN", "sched.queue_depth is NaN, want a whole number"},
	{"sched:\n  workers: inf", "sched.workers is +Inf, want a whole number"},
	{"usage:\n  topk: [1]", "usage.topk is []interface {}, want number"},
	{"sched:", "sched is <nil>, want mapping"},
	// Leaving the CPU window 0 used to mean "the default" and hide it
	// from the longer-than-the-window rule above; now no key sets it.
	{"profiler:\n  interval_seconds: 0.1\n  cpu_window_ms: 0", "unknown key profiler.cpu_window_ms"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error %q missing %q", c.src, err, c.frag)
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "caladrius.yaml")
	if err := os.WriteFile(path, []byte("api:\n  addr: \":7777\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.APIAddr != ":7777" {
		t.Errorf("addr = %q", cfg.APIAddr)
	}
	if _, err := Load(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Error("missing file accepted")
	}
}
