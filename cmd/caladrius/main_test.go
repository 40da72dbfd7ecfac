package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"caladrius/internal/config"
	"caladrius/internal/daemon"
)

func TestParseFlags(t *testing.T) {
	yaml := filepath.Join(t.TempDir(), "caladrius.yaml")
	if err := os.WriteFile(yaml, []byte(`
api:
  addr: ":7000"
fetch:
  retries: 5
usage:
  topk: 32
profiler:
  interval_seconds: 20
sched:
  workers: 3
  queue_depth: 16
  cache_ttl_minutes: 2
`), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile := func(c *daemon.Config) {
		c.APIAddr = ":7000"
		c.FetchRetries = 5
		c.UsageTopK = 32
		c.ProfileInterval = 20 * time.Second
		c.SchedWorkers, c.SchedQueueDepth, c.CalCacheTTL = 3, 16, 2*time.Minute
	}

	cases := []struct {
		name    string
		args    []string
		want    func(*daemon.Config) // edits to the documented defaults
		wantErr string
	}{
		{
			name: "no flags: the documented defaults",
			want: func(c *daemon.Config) {},
		},
		{
			name: "the benchmark's launch line",
			args: []string{"-addr", "127.0.0.1:9", "-rate", "45e6", "-warm-minutes", "1440", "-history-file", "h.json"},
			want: func(c *daemon.Config) {
				c.APIAddr, c.Rate, c.WarmMinutes, c.HistoryFile = "127.0.0.1:9", 45e6, 1440, "h.json"
			},
		},
		{
			name: "flag-only settings",
			args: []string{"-splitter", "2", "-counter", "6", "-metrics", "m.json", "-debug-addr", "localhost:1",
				"-scrape-interval", "0", "-history-retention", "30m", "-audit-resolve-interval", "1s",
				"-audit-retention", "1h", "-audit-file", "a.json", "-drift-threshold", "0.5",
				"-stale-calibration-after", "1m", "-incident-dir", "inc", "-incident-retention", "4",
				"-incident-cooldown", "1s", "-profile-baseline", "b.json"},
			want: func(c *daemon.Config) {
				c.SplitterP, c.CounterP, c.MetricsFile, c.DebugAddr = 2, 6, "m.json", "localhost:1"
				c.ScrapeInterval, c.HistoryRetention = 0, 30*time.Minute
				c.AuditResolveInterval, c.AuditRetention, c.AuditFile = time.Second, time.Hour, "a.json"
				c.DriftThreshold, c.StaleCalibrationAfter = 0.5, time.Minute
				c.IncidentDir, c.IncidentRetention, c.IncidentCooldown = "inc", 4, time.Second
				c.ProfileBaseline = "b.json"
			},
		},
		{
			name: "-1 sentinels fall through to the config file",
			args: []string{"-config", yaml, "-fetch-retries", "-1", "-usage-topk", "-1", "-profile-interval", "-1ns",
				"-sched-workers", "-1", "-sched-queue", "-1", "-calcache-ttl", "-1ns"},
			want: fromFile,
		},
		{
			name: "explicit values override the config file, zeros included",
			args: []string{"-config", yaml, "-addr", ":7001", "-fetch-retries", "0", "-fetch-backoff", "1ms",
				"-fetch-timeout", "0", "-mutex-profile-fraction", "0", "-block-profile-rate", "7",
				"-usage-topk", "0", "-usage-window", "1m", "-profile-interval", "0", "-profile-topk", "5",
				"-sched-workers", "0", "-sched-queue", "8", "-calcache-ttl", "0"},
			want: func(c *daemon.Config) {
				fromFile(c)
				c.APIAddr = ":7001"
				c.FetchRetries, c.FetchBackoff, c.FetchTimeout = 0, time.Millisecond, 0
				c.MutexProfileFraction, c.BlockProfileRate = 0, 7
				c.UsageTopK, c.UsageWindow = 0, time.Minute
				c.ProfileInterval, c.ProfileTopK = 0, 5
				c.SchedWorkers, c.SchedQueueDepth, c.CalCacheTTL = 0, 8, 0
			},
		},
		{
			name:    "-sched-queue 0 no longer selects an inline path",
			args:    []string{"-sched-queue", "0"},
			wantErr: "sched queue depth 0: want at least 1 (every model run goes through the scheduler",
		},
		{
			name:    "a missing config file",
			args:    []string{"-config", filepath.Join(t.TempDir(), "absent.yaml")},
			wantErr: "config:",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseFlags(c.args)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// The defaults are spelled out here, not taken from
			// daemon.Default, so a drifting default fails this test.
			want := daemon.Config{
				Config:                config.Default(),
				Rate:                  30e6,
				SplitterP:             3,
				CounterP:              4,
				WarmMinutes:           30,
				ScrapeInterval:        5 * time.Second,
				HistoryRetention:      time.Hour,
				AuditResolveInterval:  15 * time.Second,
				AuditRetention:        2 * time.Hour,
				DriftThreshold:        0.25,
				StaleCalibrationAfter: 30 * time.Minute,
				IncidentRetention:     16,
				IncidentCooldown:      5 * time.Minute,
			}
			c.want(&want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parseFlags(%q)\n got %+v\nwant %+v", c.args, got, want)
			}
		})
	}
}
