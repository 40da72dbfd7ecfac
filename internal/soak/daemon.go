package soak

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

// The soak's deployment, fixed: a short word-count demo history below
// saturation, scraped often enough that a seconds-long SLO window holds
// several points.
const (
	simRateTPM     = 6e6 // demo topology's offered source rate, tuples/minute
	warmMinutes    = 8   // simulated metric history pre-populated at boot
	scrapeInterval = 500 * time.Millisecond
)

// DaemonOptions configures an in-process daemon: the shipped daemon's
// wiring over the soak's demo history, with short-window SLO rules and
// the chaos plan between it and its metrics.
type DaemonOptions struct {
	// ChaosPlan wraps the metrics provider with the plan's
	// provider-side faults (metrics-outage/gap/latency). Fault times
	// are relative to Now() at StartDaemon. Required.
	ChaosPlan *chaos.Plan
	// Now is the wall clock for chaos fault gating, scrape stamps and
	// SLO window anchoring. Deterministic soak tests substitute a fake.
	// Default time.Now.
	Now func() time.Time
	// SLOWindow shortens the default HTTP SLO rule windows so a soak
	// of seconds can watch rules fire and resolve.
	SLOWindow time.Duration
}

// Daemon is the shipped daemon assembled in-process and served on a
// loopback port — the soak target.
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
// d.Scraper.Run(ctx, scrapeInterval) for wall-clock soaks, or call
// d.Scraper.ScrapeOnce with explicit timestamps for deterministic
// tests. Always Close the daemon.
func StartDaemon(opts DaemonOptions) (*Daemon, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	dc := daemon.Default()
	dc.FetchRetries = 0 // no retries: fault windows map 1:1 onto 503s
	dc.FetchTimeout = 0
	dc.Rate = simRateTPM
	dc.WarmMinutes = warmMinutes
	dc.ScrapeInterval = scrapeInterval
	dc.LogOutput = io.Discard
	dc.Wall = opts.Now
	dc.SLORules = SoakSLORules(opts.SLOWindow)
	origin := opts.Now()
	dc.WrapProvider = func(p metrics.Provider) (metrics.Provider, error) {
		return chaos.NewFaultyProvider(p, opts.ChaosPlan, chaos.ProviderOptions{Origin: origin, Now: opts.Now})
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
