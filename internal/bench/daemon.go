package bench

import (
	"io"
	"net/http/httptest"
	"strings"
	"time"

	"caladrius/internal/chaos"
	"caladrius/internal/daemon"
	"caladrius/internal/metrics"
	"caladrius/internal/telemetry"
)

// DaemonOptions configures an in-process daemon. The zero value is a
// usable small deployment: the shipped daemon's wiring over a short
// word-count demo history, with short-window SLO rules.
type DaemonOptions struct {
	// RateTPM is the demo topology's offered source rate in
	// tuples/minute. Default 6e6.
	RateTPM float64
	// WarmMinutes of simulated metric history to pre-populate.
	// Default 8.
	WarmMinutes int
	// ChaosPlan optionally wraps the metrics provider with the plan's
	// provider-side faults (metrics-outage/gap/latency). Fault times
	// are relative to Now() at StartDaemon.
	ChaosPlan *chaos.Plan
	// Now is the wall clock for chaos fault gating, scrape stamps and
	// SLO window anchoring. Deterministic soak tests substitute a fake.
	// Default time.Now.
	Now func() time.Time
	// SLOWindow shortens the default HTTP SLO rule windows so a soak
	// of seconds can watch rules fire and resolve. Default 5s.
	SLOWindow time.Duration
	// ScrapeInterval is carried onto the scraper for Scraper.Run
	// callers. Default 500ms.
	ScrapeInterval time.Duration
}

// Daemon is the shipped daemon assembled in-process and served on a
// loopback port — the soak target, and the default caladriusbench
// target when no -target is given.
type Daemon struct {
	*daemon.Daemon
	URL string

	srv *httptest.Server
}

// SoakSLORules are DefaultSLORules' two HTTP rules with the window
// compressed to w, so a seconds-long soak can observe the full
// fire→resolve cycle. Rule names match the defaults — assertions and
// dashboards keyed on them work unchanged.
func SoakSLORules(w time.Duration) []telemetry.Rule {
	var rules []telemetry.Rule
	for _, r := range telemetry.DefaultSLORules() {
		if strings.HasPrefix(r.Name, "http-") {
			r.Window = w
			rules = append(rules, r)
		}
	}
	return rules
}

// StartDaemon assembles a daemon through the composition root and
// serves it on a loopback port. Callers own the scrape loop: run
// d.Scraper.Run(ctx) for wall-clock soaks, or call d.Scraper.ScrapeOnce
// with explicit timestamps for deterministic tests. Always Close the
// daemon.
func StartDaemon(opts DaemonOptions) (*Daemon, error) {
	if opts.RateTPM <= 0 {
		opts.RateTPM = 6e6
	}
	if opts.WarmMinutes <= 0 {
		opts.WarmMinutes = 8
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.SLOWindow <= 0 {
		opts.SLOWindow = 5 * time.Second
	}
	if opts.ScrapeInterval <= 0 {
		opts.ScrapeInterval = 500 * time.Millisecond
	}
	dc := daemon.Default()
	dc.FetchRetries = 0 // no retries: fault windows map 1:1 onto 503s
	dc.FetchTimeout = 0
	dc.Rate = opts.RateTPM
	dc.WarmMinutes = opts.WarmMinutes
	dc.ScrapeInterval = opts.ScrapeInterval
	dc.LogOutput = io.Discard
	dc.Wall = opts.Now
	dc.SLORules = SoakSLORules(opts.SLOWindow)
	if opts.ChaosPlan != nil {
		origin := opts.Now()
		dc.WrapProvider = func(p metrics.Provider) (metrics.Provider, error) {
			return chaos.NewFaultyProvider(p, opts.ChaosPlan, chaos.ProviderOptions{Origin: origin, Now: opts.Now})
		}
	}
	d, err := daemon.New(dc)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(d.Handler())
	return &Daemon{Daemon: d, URL: srv.URL, srv: srv}, nil
}

// Close tears the daemon down: listener, in-flight connections,
// scheduler workers. After Close returns, every goroutine the daemon
// started has exited — the soak leak check depends on that.
func (d *Daemon) Close() error {
	d.srv.Close()
	return d.Daemon.Close()
}
