// Package daemon is Caladrius' composition root: the one place the
// service is assembled from its configuration. cmd/caladrius turns
// flags into a Config and calls Run; the soak harness, the examples and
// the end-to-end tests pass the same Config with their seams filled in
// and serve Handler in-process. Nothing else wires api.NewService.
package daemon

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/audit"
	"caladrius/internal/config"
	"caladrius/internal/heron"
	"caladrius/internal/incident"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/profiler"
	"caladrius/internal/sched"
	"caladrius/internal/telemetry"
	"caladrius/internal/tracker"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
	"caladrius/internal/workload"
)

// Config is everything a daemon is assembled from: the settings — every
// YAML key and every cmd/caladrius flag, validated by New — and the
// seams in-process callers fill.
type Config struct {
	config.Config

	// Seams: no flag sets these and the shipped binary leaves them zero.

	// Substrate replaces the demo substrate with the caller's own;
	// CalibrationLookback is then the caller's to set.
	Substrate *heron.Substrate
	// Registry is the registry to instrument into, for callers whose
	// simulation already counts into one. Default: a fresh one.
	Registry *instrument.Registry
	// LogOutput receives the text log. Default os.Stderr.
	LogOutput io.Writer
	// Now is the model clock metric queries, the tracker and audit
	// records are anchored at. Default: frozen at the substrate's AsOf.
	Now func() time.Time
	// Wall is the clock self-monitoring runs on: scrape stamps, SLO
	// windows, accuracy series, incident and profiler epochs. Default
	// time.Now.
	Wall func() time.Time
	// WrapProvider decorates the TSDB metrics provider beneath the retry
	// layer — where the chaos harness injects provider faults.
	WrapProvider func(metrics.Provider) (metrics.Provider, error)
	// SLORules replaces the rule set the daemon would compose.
	SLORules []telemetry.Rule
	// Profiler replaces the profiler built from ProfileInterval and
	// ProfileBaseline, for a synthetic capture source. It must
	// instrument into Registry.
	Profiler *profiler.Profiler
}

// Values no setting changes, each stated only here.
const (
	// fetchBackoff is the delay before the first metrics fetch retry; it
	// doubles on each later one.
	fetchBackoff = 50 * time.Millisecond
	// Sampling 1/100 mutex contention events and blocking events of at
	// least 10µs is cheap enough for an always-on daemon while keeping
	// incident contention profiles non-empty.
	mutexProfileFraction = 100
	blockProfileRateNs   = 10_000
	// The model-accuracy-drift SLO fires above this rolling MAPE, and
	// model-stale-calibration at this calibration age.
	driftThreshold        = 0.25
	staleCalibrationAfter = 30 * time.Minute
	// The profile-hot-function-regression SLO fires when a function's
	// share of flat time grows by this fraction over the baseline.
	profileRegressionDelta = 0.20
)

// Default returns the configuration of a daemon started with no flags
// and no file, which is also where in-process callers start.
func Default() Config {
	return Config{Config: config.Default()}
}

// Daemon is one assembled Caladrius service. The exported fields are
// its live components, for in-process callers that drive the loops by
// hand instead of calling Run; only Recorder and Profiler can be nil.
type Daemon struct {
	Registry  *instrument.Registry
	Tracker   *tracker.Tracker
	History   *tsdb.DB
	Scraper   *telemetry.Scraper
	SLO       *telemetry.SLO
	Ledger    *audit.Ledger
	Recorder  *incident.Recorder
	Profiler  *profiler.Profiler
	Scheduler *sched.Scheduler

	cfg     Config
	now     func() time.Time
	wall    func() time.Time
	logger  *slog.Logger
	handler http.Handler

	stopLoops context.CancelFunc
	servers   []*http.Server
	running   sync.WaitGroup // background loops and listeners
	closeOnce sync.Once
	closeErr  error
}

// New assembles a daemon. Listeners and background loops wait for Run,
// but the scheduler's and the incident recorder's workers are live, so
// a daemon that was built must be Closed.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, Registry: cfg.Registry, wall: cfg.Wall}
	if d.Registry == nil {
		d.Registry = instrument.NewRegistry()
	}
	if d.wall == nil {
		d.wall = time.Now
	}
	reg := d.Registry
	out := cfg.LogOutput
	if out == nil {
		out = os.Stderr
	}
	// The structured log is teed: text for humans, a bounded in-memory
	// ring so incident bundles carry the moments before the trigger.
	logRing := telemetry.NewLogRing(0)
	logger := slog.New(telemetry.TeeHandlers(
		slog.NewTextHandler(out, nil),
		logRing.Handler(slog.LevelInfo),
	))
	d.logger = logger
	tracer := telemetry.NewTracer(0, nil)

	sub, err := d.substrate()
	if err != nil {
		return nil, err
	}
	d.now = cfg.Now
	if d.now == nil {
		asOf := sub.AsOf
		d.now = func() time.Time { return asOf }
	}
	d.Tracker = tracker.New(d.now)
	if err := d.Tracker.Register(sub.Topology, sub.Plan); err != nil {
		return nil, err
	}
	tsdbProvider, err := metrics.NewTSDBProvider(sub.DB, cfg.MetricsWindow)
	if err != nil {
		return nil, err
	}
	var provider metrics.Provider = tsdbProvider
	if cfg.WrapProvider != nil {
		if provider, err = cfg.WrapProvider(provider); err != nil {
			return nil, err
		}
	}
	// With no retries and no timeout the wrapper passes calls through
	// and still counts caladrius_fetch_failures_total.
	provider = metrics.NewRetryingProvider(provider, metrics.RetryConfig{
		Retries: cfg.FetchRetries, Backoff: fetchBackoff, Timeout: cfg.FetchTimeout,
	}, reg)
	logger.Info("metrics fetch policy", "retries", cfg.FetchRetries, "backoff", fetchBackoff, "timeout", cfg.FetchTimeout)

	// Self-monitoring: scrape the registry into a second history store
	// (the substrate's db keeps topology metrics; this one keeps the
	// service's own telemetry, stamped with wall time).
	if d.History, err = d.loadHistory(); err != nil {
		return nil, err
	}
	d.Scraper = telemetry.NewScraper(reg, d.History, telemetry.ScrapeOptions{Now: d.wall})
	d.Scraper.AddCollector(telemetry.RegisterRuntime(reg, d.wall(), d.wall))

	// Prediction audit ledger: records every model run, and a resolver
	// joins records against the substrate's actuals. It appends per-record
	// APE points to the history store; the scraper copies its gauges.
	d.Ledger, err = audit.NewLedger(audit.Options{
		Provider:      provider,
		History:       d.History,
		Registry:      reg,
		Now:           d.now,
		SeriesNow:     d.wall,
		MetricsWindow: cfg.MetricsWindow,
	})
	if err != nil {
		return nil, err
	}
	if cfg.AuditFile != "" {
		switch err := d.Ledger.LoadFile(cfg.AuditFile); {
		case err == nil:
			logger.Info("loaded audit ledger", "file", cfg.AuditFile, "records", d.Ledger.Len())
		case errors.Is(err, os.ErrNotExist):
			// First boot: nothing to restore yet.
		default:
			return nil, fmt.Errorf("load audit ledger: %w", err)
		}
	}
	d.Scraper.AddCollector(d.Ledger.Collector())

	// Continuous profiler: a sampling loop folding pprof captures into
	// epoch windows, diffed against a persisted baseline. Its
	// caladrius_profile_* gauges flow through the scraper like any
	// other instrument, feeding the hot-function-regression SLO.
	d.Profiler = cfg.Profiler
	if d.Profiler == nil && cfg.ProfileInterval > 0 {
		d.Profiler, err = profiler.New(profiler.Options{
			Registry:     reg,
			Interval:     cfg.ProfileInterval,
			BaselinePath: cfg.ProfileBaseline,
			Now:          d.wall,
			Logger:       logger,
		})
		if err != nil {
			return nil, err
		}
		logger.Info("continuous profiler enabled", "interval", cfg.ProfileInterval)
	}

	rules := cfg.SLORules
	if rules == nil {
		rules = append(telemetry.DefaultSLORules(), telemetry.ModelAccuracyRules(driftThreshold, staleCalibrationAfter)...)
		if d.Profiler != nil {
			rules = append(rules, telemetry.ProfilerRules(profileRegressionDelta)...)
		}
	}
	if d.SLO, err = telemetry.NewSLO(d.History, reg, d.wall, rules); err != nil {
		return nil, err
	}
	d.Scraper.AfterScrape(func(time.Time) { d.SLO.Evaluate() })

	// Usage accountant: every request and model run bills a
	// (tenant, topology) principal, cardinality-capped at topk. The
	// per-principal caladrius_tenant_* series land in the shared
	// registry, so the scraper carries them into the history store and
	// query_range/SLO/dash work on them unchanged.
	acct := usage.New(usage.Options{Capacity: cfg.UsageTopK, Window: cfg.UsageWindow, Now: d.wall, Registry: reg})
	logger.Info("usage accounting enabled", "topk", cfg.UsageTopK, "window", cfg.UsageWindow)

	// Incident flight recorder: armed on the SLO evaluator, capturing a
	// bundle the moment a rule starts firing.
	if cfg.IncidentDir != "" {
		var attachments []incident.Attachment
		if d.Profiler != nil {
			// Bundles from profiler-enabled daemons carry the baseline
			// regression diff alongside the raw pprof captures.
			attachments = append(attachments, incident.Attachment{
				Name: "profile-diff.json", Capture: d.Profiler.DiffArtifact,
			})
		}
		d.Recorder, err = incident.New(incident.Options{
			Dir:         cfg.IncidentDir,
			Registry:    reg,
			History:     d.History,
			Logs:        logRing,
			Tracer:      tracer,
			Cooldown:    cfg.IncidentCooldown,
			Now:         d.wall,
			Logger:      logger,
			Attachments: attachments,
		})
		if err != nil {
			return nil, err
		}
		d.SLO.OnFiring(d.Recorder.FiringHook())
		logger.Info("incident flight recorder armed", "dir", d.Recorder.Dir(),
			"cooldown", cfg.IncidentCooldown)
	}

	// Model-run scheduler: bounded worker pool with coalescing and
	// tenant-aware admission control.
	d.Scheduler = sched.New(sched.Options{
		Workers:    cfg.SchedWorkers,
		QueueDepth: cfg.SchedQueueDepth,
		Registry:   reg,
	})
	st := d.Scheduler.Stats()
	logger.Info("model-run scheduler running", "workers", st.Workers,
		"queue_depth", st.QueueLimit, "calcache_ttl", cfg.CalCacheTTL)

	svc, err := api.NewService(d.cfg.Config, d.Tracker, provider, api.Options{
		Logger:      logger,
		Now:         d.now,
		Telemetry:   reg,
		Tracer:      tracer,
		History:     d.History,
		SLO:         d.SLO,
		Audit:       d.Ledger,
		Incidents:   d.Recorder,
		Usage:       acct,
		Scheduler:   d.Scheduler,
		CalCacheTTL: cfg.CalCacheTTL,
		Profiler:    d.Profiler,
	})
	if err != nil {
		return nil, errors.Join(err, d.Close())
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", svc.Handler())
	mux.Handle("/tracker/", http.StripPrefix("/tracker", d.Tracker.Handler()))
	mux.Handle("/metrics", telemetry.Handler(reg))
	d.handler = mux
	return d, nil
}

// substrate resolves the metric substrate: the caller's, a heronsim
// snapshot, or fresh demo history (which also bounds the lookback).
func (d *Daemon) substrate() (*heron.Substrate, error) {
	cfg := d.cfg
	switch {
	case cfg.Substrate != nil:
		return cfg.Substrate, nil
	case cfg.MetricsFile != "":
		sub, err := heron.LoadWordCountSnapshot(cfg.MetricsFile)
		if err == nil {
			d.logger.Info("loaded metrics snapshot", "file", cfg.MetricsFile, "points", sub.DB.TotalPoints(), "as_of", sub.AsOf)
		}
		return sub, err
	}
	d.logger.Info("simulating metric history", "minutes", cfg.WarmMinutes, "rate_tpm", cfg.Rate)
	warm := time.Duration(cfg.WarmMinutes) * time.Minute
	if cfg.CalibrationLookback > warm {
		d.cfg.CalibrationLookback = warm // the simulated history is no longer than that
	}
	dep, err := metrics.DeployWordCount(heron.WordCountOptions{
		SplitterP: cfg.SplitterP,
		CounterP:  cfg.CounterP,
		Schedule:  workload.ConstantRate(cfg.Rate / 60),
		Metrics:   d.Registry,
	}, 0, cfg.WarmMinutes)
	if err != nil {
		return nil, err
	}
	return dep.Substrate, nil
}

// loadHistory restores the self-monitoring store from HistoryFile, or
// starts an empty one on first boot.
func (d *Daemon) loadHistory() (*tsdb.DB, error) {
	if d.cfg.HistoryFile != "" {
		h, err := tsdb.LoadFile(d.cfg.HistoryFile)
		switch {
		case err == nil:
			d.logger.Info("loaded telemetry history", "file", d.cfg.HistoryFile, "points", h.TotalPoints())
			h.SetRetention(d.cfg.HistoryRetention)
			return h, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("load history: %w", err)
		}
	}
	return tsdb.New(d.cfg.HistoryRetention), nil
}

// Handler serves the daemon's three mounts: the REST API under /api/,
// the tracker under /tracker/ and the registry at /metrics.
func (d *Daemon) Handler() http.Handler { return d.handler }

// Run serves on APIAddr (and DebugAddr, when set), runs the scrape,
// audit-resolve and profiler loops, and blocks until ctx is cancelled
// or the API listener fails; then it Closes the daemon — cancel ctx to
// stop a running daemon, do not Close it from another goroutine. Run
// also takes over the process-wide mutex and block profiling rates:
// without them incident bundles' contention profiles come out empty.
func (d *Daemon) Run(ctx context.Context) error {
	runtime.SetMutexProfileFraction(mutexProfileFraction)
	runtime.SetBlockProfileRate(blockProfileRateNs)
	ln, err := net.Listen("tcp", d.cfg.APIAddr)
	if err != nil {
		return errors.Join(err, d.Close())
	}
	serveErr := make(chan error, 1)
	d.serve(ln, d.handler, func(err error) { serveErr <- err })
	if d.cfg.DebugAddr != "" {
		debugFailed := func(err error) { d.logger.Error("debug listener failed", "err", err) }
		if dln, err := net.Listen("tcp", d.cfg.DebugAddr); err != nil {
			debugFailed(err)
		} else {
			d.logger.Info("debug listening", "addr", d.cfg.DebugAddr)
			d.serve(dln, debugMux(d.Registry), debugFailed)
		}
	}
	loops, stop := context.WithCancel(ctx)
	d.stopLoops = stop
	d.logger.Info("self-monitoring scraper running", "interval", d.cfg.ScrapeInterval, "retention", d.cfg.HistoryRetention)
	d.goLoop(func() { d.Scraper.Run(loops, d.cfg.ScrapeInterval) })
	d.logger.Info("audit resolver running", "interval", d.cfg.AuditResolveInterval)
	d.goLoop(func() { d.Ledger.Run(loops, d.cfg.AuditResolveInterval) })
	if d.Profiler != nil {
		d.goLoop(func() { d.Profiler.Run(loops) })
	}
	d.logger.Info("caladrius listening", "addr", d.cfg.APIAddr, "topology", d.Tracker.Names()[0])
	select {
	case err = <-serveErr:
	case <-ctx.Done():
		d.logger.Info("shutting down")
	}
	return errors.Join(err, d.Close())
}

// serve runs h on ln in the background until Close shuts the server
// down; any other way of stopping is reported to failed.
func (d *Daemon) serve(ln net.Listener, h http.Handler, failed func(error)) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	d.servers = append(d.servers, srv)
	d.goLoop(func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			failed(err)
		}
	})
}

func (d *Daemon) goLoop(fn func()) {
	d.running.Add(1)
	go func() {
		defer d.running.Done()
		fn()
	}()
}

// Close shuts the daemon down in order: loops and listeners stop, the
// incident recorder finishes any capture in flight, the audit ledger
// resolves what it can and is snapshotted to AuditFile, a final scrape
// is taken and the history snapshotted to HistoryFile, the scheduler
// drains. Every goroutine the daemon started has exited when it returns.
// It reports snapshot write failures, and is safe to call repeatedly,
// without Run, and on the nil Daemon a failed New returns.
func (d *Daemon) Close() error {
	if d == nil {
		return nil
	}
	d.closeOnce.Do(func() { d.closeErr = d.shutdown() })
	return d.closeErr
}

func (d *Daemon) shutdown() error {
	if d.stopLoops != nil {
		d.stopLoops()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range d.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // still busy after the grace period: drop the connections
		}
	}
	d.running.Wait()
	if d.Recorder != nil {
		d.Recorder.Close() // bundles on disk are re-indexed on the next boot
	}
	var errs []error
	// Resolve what we can first: the APE points this writes, and the
	// gauges the final scrape below copies, belong in the history
	// snapshot as much as in the ledger's.
	d.Ledger.ResolveOnce(d.now())
	if d.cfg.AuditFile != "" {
		if err := d.Ledger.SaveFile(d.cfg.AuditFile); err != nil {
			errs = append(errs, fmt.Errorf("saving audit ledger: %w", err))
		} else {
			d.logger.Info("saved audit ledger", "file", d.cfg.AuditFile, "records", d.Ledger.Len())
		}
	}
	if d.cfg.HistoryFile != "" {
		d.Scraper.ScrapeOnce(d.wall()) // one final scrape so the snapshot is current
		if err := d.History.SaveFile(d.cfg.HistoryFile); err != nil {
			errs = append(errs, fmt.Errorf("saving telemetry history: %w", err))
		} else {
			d.logger.Info("saved telemetry history", "file", d.cfg.HistoryFile, "points", d.History.TotalPoints())
		}
	}
	d.Scheduler.Close()
	return errors.Join(errs...)
}

// debugMux serves the operational debug surface: pprof profiles,
// expvar and the metrics registry. Kept off the API listener so
// profiling endpoints are only reachable where DebugAddr points.
func debugMux(reg *instrument.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", telemetry.Handler(reg))
	return mux
}
