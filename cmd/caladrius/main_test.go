package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"caladrius/internal/config"
	"caladrius/internal/daemon"
)

func TestParseFlags(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	yaml := write("caladrius.yaml", `
api:
  addr: ":7000"
fetch:
  retries: 5
  timeout_seconds: 3
usage:
  topk: 32
  window_seconds: 60
profiler:
  interval_seconds: 20
sched:
  workers: 3
  queue_depth: 16
  cache_ttl_minutes: 2
`)
	fromFile := func(c *daemon.Config) {
		c.APIAddr = ":7000"
		c.FetchRetries, c.FetchTimeout = 5, 3*time.Second
		c.UsageTopK, c.UsageWindow = 32, time.Minute
		c.ProfileInterval = 20 * time.Second
		c.SchedWorkers, c.SchedQueueDepth, c.CalCacheTTL = 3, 16, 2*time.Minute
	}

	cases := []struct {
		name    string
		args    []string
		want    func(*daemon.Config) // edits to the documented defaults
		wantErr []string             // fragments of the error, when one is wanted
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
				"-scrape-interval", "2s", "-history-retention", "30m", "-audit-resolve-interval", "1s",
				"-audit-file", "a.json", "-incident-dir", "inc", "-incident-cooldown", "1s",
				"-profile-baseline", "b.json"},
			want: func(c *daemon.Config) {
				c.SplitterP, c.CounterP, c.MetricsFile, c.DebugAddr = 2, 6, "m.json", "localhost:1"
				c.ScrapeInterval, c.HistoryRetention = 2*time.Second, 30*time.Minute
				c.AuditResolveInterval, c.AuditFile = time.Second, "a.json"
				c.IncidentDir, c.IncidentCooldown = "inc", time.Second
				c.ProfileBaseline = "b.json"
			},
		},
		{
			// The file sets every setting that also has a flag.
			name: "omitted flags fall through to the config file",
			args: []string{"-config", yaml},
			want: fromFile,
		},
		{
			name: "flag-only settings survive loading the config file",
			args: []string{"-rate", "45e6", "-config", yaml, "-history-file", "h.tsdb"},
			want: func(c *daemon.Config) {
				fromFile(c)
				c.Rate, c.HistoryFile = 45e6, "h.tsdb"
			},
		},
		{
			name: "explicit values override the config file, zeros included",
			args: []string{"-config", yaml, "-addr", ":7001", "-fetch-retries", "0", "-fetch-timeout", "0",
				"-usage-topk", "1", "-usage-window", "2m", "-profile-interval", "0",
				"-sched-workers", "0", "-sched-queue", "8", "-calcache-ttl", "0"},
			want: func(c *daemon.Config) {
				fromFile(c)
				c.APIAddr = ":7001"
				c.FetchRetries, c.FetchTimeout = 0, 0
				c.UsageTopK, c.UsageWindow = 1, 2*time.Minute
				c.ProfileInterval = 0
				c.SchedWorkers, c.SchedQueueDepth, c.CalCacheTTL = 0, 8, 0
			},
		},
		{
			name: "a flag set to the file's own default still beats the file",
			args: []string{"-config", yaml, "-usage-topk", "256", "-addr", ":8642"},
			want: func(c *daemon.Config) {
				fromFile(c)
				c.UsageTopK, c.APIAddr = 256, ":8642"
			},
		},
		{
			name:    "-sched-queue 0 no longer selects an inline path",
			args:    []string{"-sched-queue", "0"},
			wantErr: []string{"sched.queue_depth (-sched-queue) is 0, want at least 1", "every model run goes through the scheduler"},
		},
		{
			name:    "a missing config file",
			args:    []string{"-config", filepath.Join(dir, "absent.yaml")},
			wantErr: []string{"config:"},
		},
		// -1 used to mean "not given" on twelve flags; it is now what it
		// looks like, a negative count.
		{name: "-usage-topk -1", args: []string{"-usage-topk", "-1"}, wantErr: []string{"-usage-topk", "is -1, want at least 1"}},
		{name: "-calcache-ttl -1ns", args: []string{"-config", yaml, "-calcache-ttl", "-1ns"}, wantErr: []string{"-calcache-ttl", "is -1ns, want at least 0s"}},
		{name: "-addr ''", args: []string{"-addr", ""}, wantErr: []string{`api.addr (-addr) is "" (0 characters), want at least 1`}},
		// What the hand-written copies let through.
		{name: "a misspelt key", args: []string{"-config", write("typo.yaml", "sched:\n  queue_dept: 3\n")},
			wantErr: []string{"unknown key sched.queue_dept", "workers, queue_depth, cache_ttl_minutes"}},
		{name: "an unknown section", args: []string{"-config", write("bogus.yaml", "bogus: 1\n")},
			wantErr: []string{`unknown section "bogus"`, "sched"}},
		{name: "a fractional count", args: []string{"-config", write("frac.yaml", "sched:\n  workers: 2.7\n")},
			wantErr: []string{"sched.workers is 2.7, want a whole number"}},
		{name: "a fractional negative count", args: []string{"-config", write("neg.yaml", "fetch:\n  retries: -0.5\n")},
			wantErr: []string{"fetch.retries is -0.5, want a whole number"}},
		{name: "an overflowing count", args: []string{"-config", write("big.yaml", "usage:\n  topk: 1e30\n")},
			wantErr: []string{"usage.topk is 1e+30, want a whole number"}},
		{name: "-splitter 0", args: []string{"-splitter", "0"}, wantErr: []string{"-splitter is 0, want at least 1"}},
		{name: "-rate -5", args: []string{"-rate", "-5"}, wantErr: []string{"-rate is -5, want at least 1"}},
		{name: "-history-retention -5s", args: []string{"-history-retention", "-5s"}, wantErr: []string{"-history-retention is -5s, want at least 0s"}},
		// Flags whose values became constants are gone, not ignored.
		{name: "-audit-retention -1h", args: []string{"-audit-retention", "-1h"}, wantErr: []string{"flag provided but not defined: -audit-retention"}},
		{name: "-incident-retention -1", args: []string{"-incident-retention", "-1"}, wantErr: []string{"flag provided but not defined: -incident-retention"}},
		{name: "-drift-threshold -1", args: []string{"-drift-threshold", "-1"}, wantErr: []string{"flag provided but not defined: -drift-threshold"}},
		{name: "-scrape-interval -1s", args: []string{"-scrape-interval", "-1s"}, wantErr: []string{"-scrape-interval is -1s, want at least 1ns", "always on"}},
		// The always-on subsystems have no off-switch, and the profiler's
		// CPU window is no setting: it cannot be zeroed to hide it from
		// the fits-the-interval rule.
		{name: "-scrape-interval 0", args: []string{"-scrape-interval", "0"}, wantErr: []string{"-scrape-interval is 0s, want at least 1ns", "always on"}},
		{name: "-audit-resolve-interval 0", args: []string{"-audit-resolve-interval", "0"}, wantErr: []string{"-audit-resolve-interval is 0s, want at least 1ns", "always on"}},
		{name: "-usage-topk 0", args: []string{"-usage-topk", "0"}, wantErr: []string{"usage.topk (-usage-topk) is 0, want at least 1", "always on"}},
		{name: "a zero cpu window under a short interval", args: []string{"-profile-interval", "100ms", "-config", write("window.yaml", "profiler:\n  cpu_window_ms: 0\n")},
			wantErr: []string{"unknown key profiler.cpu_window_ms (keys of profiler: interval_seconds)"}},
		{name: "a profile interval the cpu window does not fit", args: []string{"-profile-interval", "250ms"},
			wantErr: []string{"profiler.interval_seconds (-profile-interval) is 250ms, want 0 or longer than the profiler's 250ms CPU window"}},
		{name: "-sched-workers 2.7", args: []string{"-sched-workers", "2.7"}, wantErr: []string{"-sched-workers", "parse error"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseFlags(c.args)
			if c.wantErr != nil {
				for _, frag := range c.wantErr {
					if err == nil || !strings.Contains(err.Error(), frag) {
						t.Fatalf("error = %v, want one containing %q", err, frag)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// The defaults are spelled out here, not taken from
			// config.Default, so a drifting default fails this test.
			want := daemon.Config{Config: config.Config{
				APIAddr:              ":8642",
				MetricsWindow:        time.Minute,
				TrafficModels:        []config.ModelRef{{Name: "prophet"}, {Name: "summary"}},
				CalibrationWarmup:    4,
				CalibrationLookback:  2 * time.Hour,
				FetchRetries:         2,
				FetchTimeout:         10 * time.Second,
				UsageTopK:            256,
				UsageWindow:          15 * time.Minute,
				ProfileInterval:      10 * time.Second,
				SchedWorkers:         0,
				SchedQueueDepth:      64,
				CalCacheTTL:          10 * time.Minute,
				Rate:                 30e6,
				SplitterP:            3,
				CounterP:             4,
				WarmMinutes:          30,
				ScrapeInterval:       5 * time.Second,
				HistoryRetention:     time.Hour,
				AuditResolveInterval: 15 * time.Second,
				IncidentCooldown:     5 * time.Minute,
			}}
			c.want(&want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parseFlags(%q)\n got %+v\nwant %+v", c.args, got, want)
			}
		})
	}
}

// The package comment's prose names flags; each must be one the binary
// has.
func TestDocCommentNamesRealFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	c := daemon.Default()
	fs := flag.NewFlagSet("caladrius", flag.ContinueOnError)
	fs.String("config", "", "")
	c.Config.Flags(fs)
	flagInProse := regexp.MustCompile(`(?:^|[\s(\x60])-([a-z][a-z-]*)`)
	named := 0
	for _, line := range strings.Split(doc, "\n") {
		if strings.Contains(line, "curl") || strings.Contains(line, "-d '") {
			continue // the example request's flags are curl's
		}
		for _, m := range flagInProse.FindAllStringSubmatch(line, -1) {
			named++
			if m[1] != "h" && fs.Lookup(m[1]) == nil {
				t.Errorf("the package comment names -%s, which is not a flag", m[1])
			}
		}
	}
	if named < 10 {
		t.Errorf("found only %d flags in the package comment: the pattern has stopped matching", named)
	}
}
