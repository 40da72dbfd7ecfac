package main

import (
	"log/slog"
	"os"
	"strings"
	"testing"
	"time"

	"caladrius/internal/daemon"
	"caladrius/internal/profiler"
	"caladrius/internal/profiler/pproftest"
	"caladrius/internal/telemetry"
)

// withProfiler wires a profiler with synthetic windows — one steady,
// then regressed ones with a hotNew function filling the diff span —
// into the test server.
func withProfiler(t *testing.T) func(*daemon.Config) {
	t.Helper()
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	hot := false
	reg := telemetry.NewRegistry()
	p, err := profiler.New(profiler.Options{
		Registry: reg,
		Interval: 10 * time.Second,
		Now:      func() time.Time { return clock },
		Logger:   slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
		Source: func(kind profiler.Kind) ([]byte, error) {
			stacks := map[string]int64{"main;steady": 900, "main;other": 100}
			if hot {
				stacks = map[string]int64{"main;steady": 300, "main;hotNew": 600, "main;other": 100}
			}
			return pproftest.CPUProfile(stacks), nil
		},
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
	return func(c *daemon.Config) { c.Registry, c.Profiler = reg, p }
}

func TestProfileCommand(t *testing.T) {
	srv, _ := newTestServer(t, withProfiler(t))
	base := []string{"-server", srv.URL}
	cases := []struct {
		name  string
		args  []string
		wants []string
	}{
		{"status", []string{"profile"}, []string{
			"profiler: interval", "baseline: auto", "top_regression", "cpu",
		}},
		{"top", []string{"profile", "top"}, []string{
			"top functions by flat", "hotNew", "steady", "flat%",
		}},
		{"top-n1", []string{"profile", "top", "-n", "1"}, []string{"hotNew"}},
		{"diff", []string{"profile", "diff"}, []string{
			"regression vs auto baseline", "Δflat%", "hotNew", "+60.00",
		}},
		{"diff-raw", []string{"profile", "diff", "-raw"}, []string{
			`"delta_flat_frac"`, "hotNew",
		}},
		{"baseline", []string{"profile", "baseline"}, []string{"baseline reset"}},
		// After the explicit re-baseline the regression is gone.
		{"diff-after", []string{"profile", "diff"}, []string{"regression vs explicit baseline"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := captureStdout(t, func() error {
				return run(append(append([]string{}, base...), c.args...))
			})
			if err != nil {
				t.Fatalf("calctl %s: %v\n%s", strings.Join(c.args, " "), err, out)
			}
			for _, want := range c.wants {
				if !strings.Contains(out, want) {
					t.Errorf("calctl %s output missing %q:\n%s", strings.Join(c.args, " "), want, out)
				}
			}
		})
	}
	// "top-n1" must show only the single hottest function.
	out, err := captureStdout(t, func() error {
		return run(append(append([]string{}, base...), "profile", "top", "-n", "1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "steady") {
		t.Errorf("profile top -n 1 shows more than one function:\n%s", out)
	}
}

func TestProfileCommandErrors(t *testing.T) {
	srv, _ := newTestServer(t, withProfiler(t))
	base := []string{"-server", srv.URL}
	bad := [][]string{
		{"profile", "bogus"},                 // unknown subcommand
		{"profile", "top", "-kind", "bogus"}, // server-side 400
		{"profile", "top", "-n", "x"},        // flag parse error
	}
	for _, args := range bad {
		out, err := captureStdout(t, func() error {
			return run(append(append([]string{}, base...), args...))
		})
		if err == nil {
			t.Errorf("calctl %s: expected error\n%s", strings.Join(args, " "), out)
		}
	}
}

// Against a profiler-disabled daemon every profile subcommand prints
// the explicit notice and exits 0 rather than failing.
func TestProfileCommandDisabled(t *testing.T) {
	srv, _ := newTestServer(t)
	base := []string{"-server", srv.URL}
	for _, args := range [][]string{
		{"profile"},
		{"profile", "top"},
		{"profile", "diff"},
		{"profile", "baseline"},
	} {
		out, err := captureStdout(t, func() error {
			return run(append(append([]string{}, base...), args...))
		})
		if err != nil {
			t.Fatalf("calctl %s against disabled daemon: %v", strings.Join(args, " "), err)
		}
		if !strings.Contains(out, "continuous profiler disabled on server") {
			t.Errorf("calctl %s: missing disabled notice:\n%s", strings.Join(args, " "), out)
		}
	}
}
