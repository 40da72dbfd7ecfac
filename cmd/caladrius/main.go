// Command caladrius runs the Caladrius performance-modelling web
// service. Without a running Heron cluster to model, the daemon starts
// in demo mode: it boots the embedded Heron simulator with the paper's
// word-count topology, streams its metrics into the embedded
// time-series database, registers the topology with the embedded
// tracker and serves the modelling API against that live state.
//
// The daemon also monitors itself: a background scraper appends every
// registry instrument into a second embedded time-series store, an SLO
// evaluator checks alert rules after each scrape, and the history is
// served back through /api/v1/query_range and /api/v1/alerts (see
// `calctl dash`). -scrape-interval 0 disables self-monitoring;
// -history-file persists the history across restarts.
//
// When self-monitoring is on, the daemon also audits its own models: a
// prediction audit ledger records every performance/plan run, a
// background resolver joins records against observed actuals and
// derives caladrius_model_* accuracy series, and two extra SLO rules
// watch for accuracy drift and stale calibrations. The ledger is
// served through /api/v1/audit (see `calctl accuracy`);
// -audit-resolve-interval 0 disables it, -audit-file persists it.
//
// With -incident-dir set, an incident flight recorder arms itself on
// the SLO evaluator: the moment any rule starts firing, it captures a
// bundle — pprof profiles, the recent structured-log ring, the recent
// span ring, and the firing rule's metric window — under that
// directory, debounced per rule by -incident-cooldown and bounded on
// disk by -incident-retention. Bundles are served through
// /api/v1/incidents (see `calctl incidents`).
//
// Every request and model run is also billed to a (tenant, topology)
// usage principal — tenant from the X-Caladrius-Tenant header,
// anonymous otherwise — with cardinality capped at -usage-topk
// principals (the rest roll into an "other" bucket). Per-principal
// caladrius_tenant_* series flow through the scraper like everything
// else, and the ranked breakdown is served through /api/v1/usage (see
// `calctl usage`); -usage-topk 0 disables accounting.
//
// An always-on continuous profiler captures CPU/heap/goroutine/mutex
// pprof profiles every -profile-interval, folds them into per-function
// tables over a bounded ring of epoch windows, and diffs the live
// windows against a persisted baseline (-profile-baseline). The top
// regressing function's flat-share delta is exported as
// caladrius_profile_top_regression_delta, watched by the
// profile-hot-function-regression SLO, and the full diff table rides
// along in incident bundles. Served through /api/v1/profiles (see
// `calctl profile`); -profile-interval 0 disables it.
//
// Model runs flow through a bounded worker-pool scheduler: identical
// concurrent requests coalesce onto one run, calibrations are cached
// per (topology, packing-plan version, lookback window) until a
// tracker update invalidates them, and a tenant-fair admission queue
// sheds overload with 429 + Retry-After. Scheduler state is served
// through /api/v1/sched (see `calctl dash`).
//
// Usage:
//
//	caladrius [-config caladrius.yaml] [-addr :8642] [-rate 30e6] [-debug-addr localhost:8643]
//	          [-scrape-interval 5s] [-history-retention 1h] [-history-file caladrius-history.tsdb]
//	          [-audit-resolve-interval 15s] [-audit-retention 2h] [-audit-file caladrius-audit.json]
//	          [-incident-dir caladrius-incidents] [-incident-retention 16] [-incident-cooldown 5m]
//	          [-usage-topk 256] [-usage-window 15m] [-sched-workers 4] [-sched-queue 64] [-calcache-ttl 10m]
//	          [-profile-interval 10s] [-profile-baseline caladrius-baseline.json] [-profile-topk 20]
//
// Then query it, e.g.:
//
//	curl -s -XPOST 'localhost:8642/api/v1/model/topology/word-count/performance?sync=true' \
//	     -d '{"parallelism": {"splitter": 4}, "source_rate_tpm": 30000000}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"caladrius/internal/config"
	"caladrius/internal/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "caladrius:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return d.Run(ctx)
}

// parseFlags turns the command line into the daemon's configuration:
// the YAML file (or the defaults), then every flag that was given a
// non-sentinel value on top of it.
func parseFlags(args []string) (daemon.Config, error) {
	c := daemon.Default()
	fs := flag.NewFlagSet("caladrius", flag.ContinueOnError)
	configPath := fs.String("config", "", "path to a YAML configuration file")
	addr := fs.String("addr", "", "listen address (overrides config)")
	fs.Float64Var(&c.Rate, "rate", c.Rate, "demo topology offered source rate (tuples/minute)")
	fs.IntVar(&c.SplitterP, "splitter", c.SplitterP, "demo splitter parallelism")
	fs.IntVar(&c.CounterP, "counter", c.CounterP, "demo counter parallelism")
	fs.IntVar(&c.WarmMinutes, "warm-minutes", c.WarmMinutes, "simulated minutes of metric history to pre-populate")
	fs.StringVar(&c.MetricsFile, "metrics", "", "serve from a heronsim -save metrics snapshot instead of simulating")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "optional second listener for /debug/pprof, /debug/vars and /metrics (e.g. localhost:8643)")
	fs.DurationVar(&c.ScrapeInterval, "scrape-interval", c.ScrapeInterval, "self-monitoring scrape period; 0 disables the scraper, history and alerts")
	fs.DurationVar(&c.HistoryRetention, "history-retention", c.HistoryRetention, "how much scraped telemetry history to keep")
	fs.StringVar(&c.HistoryFile, "history-file", "", "persist scraped history to this file on shutdown and reload it on boot")
	fs.DurationVar(&c.AuditResolveInterval, "audit-resolve-interval", c.AuditResolveInterval, "how often the audit resolver joins predictions with actuals; 0 disables the prediction ledger")
	fs.DurationVar(&c.AuditRetention, "audit-retention", c.AuditRetention, "how long resolved audit records are retained")
	fs.StringVar(&c.AuditFile, "audit-file", "", "persist the audit ledger to this file on shutdown and reload it on boot")
	fs.Float64Var(&c.DriftThreshold, "drift-threshold", c.DriftThreshold, "rolling MAPE above which the model-accuracy-drift SLO fires")
	fs.DurationVar(&c.StaleCalibrationAfter, "stale-calibration-after", c.StaleCalibrationAfter, "calibration age at which the model-stale-calibration SLO fires")
	fetchRetries := fs.Int("fetch-retries", -1, "metrics fetch retries on transient failure; 0 disables, -1 uses the config value")
	fetchBackoff := fs.Duration("fetch-backoff", -1, "delay before the first fetch retry (doubles each retry); -1 uses the config value")
	fetchTimeout := fs.Duration("fetch-timeout", -1, "per-attempt metrics fetch bound; 0 disables, -1 uses the config value")
	fs.StringVar(&c.IncidentDir, "incident-dir", "", "capture incident bundles (profiles, logs, spans, metric windows) under this directory when an SLO fires; empty disables the flight recorder")
	fs.IntVar(&c.IncidentRetention, "incident-retention", c.IncidentRetention, "how many incident bundles to keep on disk (oldest deleted first)")
	fs.DurationVar(&c.IncidentCooldown, "incident-cooldown", c.IncidentCooldown, "minimum spacing between SLO-triggered captures of the same rule")
	mutexFraction := fs.Int("mutex-profile-fraction", -1, "sample 1/n mutex contention events for incident mutex profiles; 0 disables, -1 uses the config value")
	blockRate := fs.Int("block-profile-rate", -1, "sample blocking events of at least this many nanoseconds for incident block profiles; 0 disables, -1 uses the config value")
	usageTopK := fs.Int("usage-topk", -1, "track at most this many (tenant, topology) usage principals, evicting into an 'other' rollup; 0 disables usage accounting, -1 uses the config value")
	usageWindow := fs.Duration("usage-window", -1, "trailing window /api/v1/usage ranks principals over; -1 uses the config value")
	profileInterval := fs.Duration("profile-interval", -1, "continuous profiler capture period; 0 disables the profiler, -1 uses the config value")
	fs.StringVar(&c.ProfileBaseline, "profile-baseline", "", "persist the profiling baseline snapshot to this file and reload it on boot")
	profileTopK := fs.Int("profile-topk", -1, "default row count for profile top/diff/flame responses; -1 uses the config value")
	schedWorkers := fs.Int("sched-workers", -1, "model-run scheduler worker pool size; 0 auto-sizes to max(2, GOMAXPROCS), -1 uses the config value")
	schedQueue := fs.Int("sched-queue", -1, "model-run scheduler admission queue depth, at least 1 (excess sheds with 429); -1 uses the config value")
	calCacheTTL := fs.Duration("calcache-ttl", -1, "calibration cache entry lifetime; 0 keeps entries until invalidation, -1 uses the config value")
	if err := fs.Parse(args); err != nil {
		return c, err
	}

	if *configPath != "" {
		var err error
		if c.Config, err = config.Load(*configPath); err != nil {
			return c, err
		}
	}
	if *addr != "" {
		c.APIAddr = *addr
	}
	override(&c.FetchRetries, *fetchRetries)
	override(&c.FetchBackoff, *fetchBackoff)
	override(&c.FetchTimeout, *fetchTimeout)
	override(&c.MutexProfileFraction, *mutexFraction)
	override(&c.BlockProfileRate, *blockRate)
	override(&c.UsageTopK, *usageTopK)
	override(&c.UsageWindow, *usageWindow)
	override(&c.ProfileInterval, *profileInterval)
	override(&c.ProfileTopK, *profileTopK)
	override(&c.SchedWorkers, *schedWorkers)
	override(&c.SchedQueueDepth, *schedQueue)
	override(&c.CalCacheTTL, *calCacheTTL)
	return c, c.Config.Validate()
}

// override sets a configuration value from its flag unless the flag was
// left at (or set to) the negative "use the config value" sentinel.
func override[T int | time.Duration](dst *T, flagValue T) {
	if flagValue >= 0 {
		*dst = flagValue
	}
}
