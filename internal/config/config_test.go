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
}

func TestParseFull(t *testing.T) {
	src := `
api:
  addr: "127.0.0.1:9999"
  request_timeout_seconds: 5
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
profiling:
  mutex_fraction: 50
  block_rate_ns: 5000
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
	if cfg.RequestTimeout != 5*time.Second {
		t.Errorf("timeout = %s", cfg.RequestTimeout)
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
	if cfg.MutexProfileFraction != 50 || cfg.BlockProfileRate != 5000 {
		t.Errorf("profiling = %+v", cfg)
	}
	if cfg.UsageTopK != 64 || cfg.UsageWindow != 5*time.Minute {
		t.Errorf("usage = %+v", cfg)
	}
}

// UsageTopK 0 is a valid way to disable accounting; negatives and a
// dead window are not.
func TestParseUsageSection(t *testing.T) {
	cfg, err := Parse("usage:\n  topk: 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UsageTopK != 0 || cfg.UsageWindow != Default().UsageWindow {
		t.Errorf("usage = %+v", cfg)
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
	cfg, err = Parse("profiler:\n  interval_seconds: 5\n  cpu_window_ms: 100\n  epoch_seconds: 30\n  windows: 4\n  topk: 7\n  regression_delta: 0.35\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ProfileInterval != 5*time.Second || cfg.ProfileCPUWindow != 100*time.Millisecond ||
		cfg.ProfileEpoch != 30*time.Second || cfg.ProfileWindows != 4 ||
		cfg.ProfileTopK != 7 || cfg.ProfileRegressionDelta != 0.35 {
		t.Errorf("profiler config = %+v", cfg)
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

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"api: 5", "want mapping"},
		{"api:\n  addr: 99", "want string"},
		{"api:\n  request_timeout_seconds: no", "want number"},
		{"traffic_models: scalar", "want list"},
		{"traffic_models:\n  - 5", "want mapping"},
		{"traffic_models:\n  - options: {}", "missing name"},
		{"traffic_models:\n  - name: x\n    options: 5", "want mapping"},
		{"traffic_models: []", "no traffic models"},
		{"api:\n  request_timeout_seconds: -1", "timeout"},
		{"metrics:\n  window_seconds: 0", "window"},
		{"calibration:\n  warmup_windows: -2", "warmup"},
		{"calibration:\n  lookback_minutes: 0", "lookback"},
		{"api:\n  addr: ''", "empty api addr"},
		{"profiling:\n  mutex_fraction: -1", "mutex profile fraction"},
		{"profiling:\n  block_rate_ns: -1", "block profile rate"},
		{"usage:\n  topk: -1", "usage topk"},
		{"usage:\n  window_seconds: 0", "usage window"},
		{"profiler:\n  interval_seconds: -1", "profile interval"},
		{"profiler:\n  cpu_window_ms: 20000", "shorter than the interval"},
		{"profiler:\n  windows: -2", "profile windows"},
		{"profiler:\n  regression_delta: 1.5", "regression delta"},
		{"sched:\n  queue_depth: 0", "no longer selects an inline path"},
	}
	for _, c := range cases {
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
