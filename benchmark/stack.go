package main

import (
	"io"
	"log/slog"
	"net/http"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/audit"
	"caladrius/internal/config"
	"caladrius/internal/core"
	"caladrius/internal/graph"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/sched"
	"caladrius/internal/telemetry"
	"caladrius/internal/topology"
	"caladrius/internal/tracker"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
	simload "caladrius/internal/workload"
)

// stack is the daemon's serving tier wired in-process through the
// public constructors, the way cmd/caladrius wires it for the flags
// the benchmark passes. The oracle uses its model to check answers
// that came over the wire; the traced run times each layer of it.
type stack struct {
	cfg      config.Config
	asOf     time.Time
	top      *topology.Topology
	db       *tsdb.DB // simulated topology metrics
	history  *tsdb.DB // the service's own telemetry
	reg      *telemetry.Registry
	tracker  *tracker.Tracker
	provider *metrics.TSDBProvider
	calcache *sched.CalCache
	sched    *sched.Scheduler
	ledger   *audit.Ledger
	acct     *usage.Accountant
	graphs   *graph.Cache
	sampler  *core.CostSampler
	scraper  *telemetry.Scraper
	slo      *telemetry.SLO
	handler  http.Handler
	model    *core.TopologyModel
	simMinS  float64 // wall seconds per simulated minute of warm-up
}

func (s *stack) close() {
	if s.sched != nil {
		s.sched.Close()
	}
}

// newStack simulates the same warm history as the daemon and wires the
// tier over it. withService also builds api.Service and its handler;
// the oracle needs only the calibrated model.
func newStack(withService bool) (*stack, error) {
	const splitterP, counterP = 3, 4 // the daemon's -splitter/-counter defaults
	s := &stack{cfg: config.Default(), reg: telemetry.NewRegistry()}
	sim, err := heron.NewWordCount(heron.WordCountOptions{
		SplitterP: splitterP,
		CounterP:  counterP,
		Schedule:  simload.ConstantRate(daemonRateTPM / 60),
		Metrics:   s.reg,
	})
	if err != nil {
		return nil, err
	}
	warm := daemonWarmMinutes * time.Minute
	t0 := time.Now()
	if err := sim.Run(warm); err != nil {
		return nil, err
	}
	s.simMinS = time.Since(t0).Seconds() / daemonWarmMinutes
	s.db = sim.DB()
	s.asOf = sim.Start().Add(warm)
	frozen := func() time.Time { return s.asOf }

	if s.top, err = heron.WordCountTopology(8, splitterP, counterP); err != nil {
		return nil, err
	}
	plan, err := topology.RoundRobinPack(s.top, 2)
	if err != nil {
		return nil, err
	}
	s.tracker = tracker.New(frozen)
	if err := s.tracker.Register(s.top, plan); err != nil {
		return nil, err
	}
	if s.provider, err = metrics.NewTSDBProvider(s.db, s.cfg.MetricsWindow); err != nil {
		return nil, err
	}
	if s.model, err = s.calibrate(); err != nil {
		return nil, err
	}
	if !withService {
		return s, nil
	}

	s.history = tsdb.New(time.Hour)
	s.scraper = telemetry.NewScraper(s.reg, s.history, telemetry.ScrapeOptions{})
	s.scraper.AddCollector(telemetry.RegisterRuntime(s.reg, time.Now(), time.Now))
	if s.ledger, err = audit.NewLedger(audit.Options{
		Provider:      s.provider,
		History:       s.history,
		Registry:      s.reg,
		Now:           frozen,
		SeriesNow:     time.Now,
		MetricsWindow: s.cfg.MetricsWindow,
	}); err != nil {
		return nil, err
	}
	s.scraper.AddCollector(s.ledger.Collector())
	if s.slo, err = telemetry.NewSLO(s.history, s.reg, nil, telemetry.DefaultSLORules()); err != nil {
		return nil, err
	}
	s.acct = usage.New(usage.Options{Capacity: s.cfg.UsageTopK, Window: s.cfg.UsageWindow, Registry: s.reg})
	s.sampler = &core.CostSampler{}
	s.graphs = graph.NewCache()
	s.calcache = sched.NewCalCache(sched.CalCacheOptions{TTL: s.cfg.CalCacheTTL, Now: frozen})
	s.calcache.Store(topologyName, plan.Version, s.cfg.CalibrationLookback, s.model)
	s.sched = sched.New(sched.Options{Workers: s.cfg.SchedWorkers, QueueDepth: s.cfg.SchedQueueDepth, Registry: s.reg})
	svc, err := api.NewService(s.cfg, s.tracker, s.provider, api.Options{
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		Now:         frozen,
		Telemetry:   s.reg,
		History:     s.history,
		SLO:         s.slo,
		Audit:       s.ledger,
		Usage:       s.acct,
		Scheduler:   s.sched,
		CalCacheTTL: s.cfg.CalCacheTTL,
	})
	if err != nil {
		s.sched.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", svc.Handler())
	mux.Handle("/metrics", telemetry.Handler(s.reg))
	s.handler = mux
	return s, nil
}

// calibrate runs the same calibration api.Service runs on a cache miss.
func (s *stack) calibrate() (*core.TopologyModel, error) {
	models, _, err := core.CalibrateTopologyFromProviderReport(s.provider, s.top,
		s.asOf.Add(-s.cfg.CalibrationLookback), s.asOf, core.CalibrationOptions{
			Warmup: s.cfg.CalibrationWarmup,
			Window: s.cfg.MetricsWindow,
		})
	if err != nil {
		return nil, err
	}
	return core.NewTopologyModel(s.top, models)
}

// observedRate is the rate a {} request is evaluated at: the last
// point of the trailing 15 minutes of source throughput.
func (s *stack) observedRate() (float64, error) {
	pts, err := s.provider.SourceRate(topologyName, s.top.Spouts(), s.asOf.Add(-15*time.Minute), s.asOf)
	if err != nil {
		return 0, err
	}
	return pts[len(pts)-1].V, nil
}
