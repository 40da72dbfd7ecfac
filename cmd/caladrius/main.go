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
// `calctl dash`). -scrape-interval sets the period; -history-file
// persists the history across restarts.
//
// The daemon also audits its own models: a prediction audit ledger
// records every performance/plan run, a background resolver joins
// records against observed actuals every -audit-resolve-interval and
// derives caladrius_model_* accuracy series, and two extra SLO rules
// watch for accuracy drift and stale calibrations. The ledger is
// served through /api/v1/audit (see `calctl accuracy`); -audit-file
// persists it.
//
// With -incident-dir set, an incident flight recorder arms itself on
// the SLO evaluator: the moment any rule starts firing, it captures a
// bundle — pprof profiles, the recent structured-log ring, the recent
// span ring, and the firing rule's metric window — under that
// directory, debounced per rule by -incident-cooldown and bounded on
// disk to the newest 16. Bundles are served through
// /api/v1/incidents (see `calctl incidents`).
//
// Every request and model run is also billed to a (tenant, topology)
// usage principal — tenant from the X-Caladrius-Tenant header,
// anonymous otherwise — with cardinality capped at -usage-topk
// principals (the rest roll into an "other" bucket). Per-principal
// caladrius_tenant_* series flow through the scraper like everything
// else, and the ranked breakdown is served through /api/v1/usage (see
// `calctl usage`).
//
// On by default, a continuous profiler captures CPU/heap/goroutine/mutex
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
//	caladrius [-config caladrius.yaml] [flags]
//
// `caladrius -h` lists every flag with its default; the list is
// generated from the settings table in internal/config, whose package
// comment shows the YAML file. A flag given on the command line beats
// the file; a flag left out leaves the file's value (or the default) in
// force.
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
// the defaults, under the YAML file if -config names one, under every
// flag the command line gives. The flags themselves are rows of
// internal/config's settings table.
func parseFlags(args []string) (daemon.Config, error) {
	c := daemon.Default()
	fs := flag.NewFlagSet("caladrius", flag.ContinueOnError)
	configPath := fs.String("config", "", "path to a YAML configuration file")
	c.Config.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if *configPath != "" {
		if err := c.Config.LoadUnderFlags(*configPath, fs); err != nil {
			return c, err
		}
	}
	return c, c.Config.Validate()
}
