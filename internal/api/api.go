// Package api implements Caladrius' API tier (§III-A): a JSON REST
// service through which clients request traffic forecasts and topology
// performance predictions. Modelling runs asynchronously by default —
// a request returns 202 Accepted with a job id to poll — because model
// evaluation can take seconds; ?sync=true holds the request open until
// the run finishes, for small requests and tests.
//
// Endpoints:
//
//	GET  /api/v1/health
//	GET  /api/v1/models/traffic                           registered forecast models
//	POST /api/v1/model/traffic/{topology}                 traffic forecast
//	POST /api/v1/model/traffic/{topology}/rank            backtest-rank configured models
//	POST /api/v1/model/topology/{topology}/performance    performance prediction
//	POST /api/v1/model/topology/{topology}/suggest        minimal safe parallelism plan
//	POST /api/v1/model/topology/{topology}/calibrate      force recalibration
//	GET  /api/v1/model/topology/{topology}/model          calibrated model parameters
//	GET  /api/v1/model/topology/{topology}/graph          topology graph analyses
//	POST /api/v1/model/topology/{topology}/query          Gremlin-style graph query
//	GET  /api/v1/jobs/{id}                                job status/result
//	GET  /api/v1/jobs/{id}/trace                          span tree of a model run (job or sync trace id)
//	GET  /api/v1/query_range                              scraped telemetry history (see history.go)
//	GET  /api/v1/alerts                                   SLO alert states (see history.go)
//	GET  /api/v1/audit                                    prediction audit ledger (see audit.go)
//	GET  /api/v1/audit/{id}                               one audit record
//	GET  /api/v1/incidents                                incident bundles (see incidents.go)
//	GET  /api/v1/incidents/{id}                           one incident manifest
//	GET  /api/v1/incidents/{id}/artifacts/{name}          download an incident artifact
//	POST /api/v1/incidents/capture                        capture an incident bundle now
//	GET  /api/v1/usage                                    per-tenant usage accounting (see usage.go)
//	GET  /api/v1/sched                                    model-run scheduler snapshot (see sched.go)
//	GET  /api/v1/profiles                                 continuous profiler status (see profiles.go)
//	GET  /api/v1/profiles/top                             hot functions over recent windows
//	GET  /api/v1/profiles/diff                            regression diff vs the baseline
//	GET  /api/v1/profiles/flame                           merged flame stacks
//	POST /api/v1/profiles/baseline                        re-baseline at the current profile
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"caladrius/internal/audit"
	"caladrius/internal/config"
	"caladrius/internal/core"
	"caladrius/internal/forecast"
	"caladrius/internal/graph"
	"caladrius/internal/incident"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/profiler"
	"caladrius/internal/sched"
	"caladrius/internal/telemetry"
	"caladrius/internal/tracker"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
)

// Service wires the model tier to its helpers: the topology metadata
// service, the metrics provider and the graph cache.
type Service struct {
	cfg      config.Config
	tracker  *tracker.Tracker
	provider metrics.Provider
	graphs   *graph.Cache
	jobs     *jobStore
	logger   *slog.Logger
	now      func() time.Time

	tel         *instrument.Registry
	tracer      *telemetry.Tracer
	history     *tsdb.DB
	slo         *telemetry.SLO
	audit       *audit.Ledger
	incidents   *incident.Recorder
	usage       *usage.Accountant
	profiler    *profiler.Profiler
	sampler     core.CostSampler
	jobsRunning *instrument.Gauge
	jobsDone    *instrument.Counter
	jobsFailed  *instrument.Counter

	// schedr is the bounded model-run scheduler every model run is
	// queued through.
	schedr *sched.Scheduler
	// calcache holds calibrated topology models keyed by (topology,
	// packing-plan version, calibration lookback); invalidated by
	// tracker change hooks and forced recalibrations.
	calcache *sched.CalCache
}

// Options carries the service's dependencies beyond the tracker and the
// metrics provider. The ones every daemon runs are marked Required, so
// no endpoint or model run has a shape without them.
type Options struct {
	// Logger receives the structured access log and service events.
	// Required.
	Logger *slog.Logger
	// Now anchors metric queries and job timestamps. Required. A frozen
	// demo clock here does not affect telemetry: spans and request
	// latencies always measure real wall time.
	Now func() time.Time
	// Telemetry is the metrics registry to instrument into. Default: a
	// fresh private registry.
	Telemetry *instrument.Registry
	// Tracer records model-pipeline traces. Default: a fresh tracer
	// retaining telemetry.DefaultMaxTraces traces.
	Tracer *telemetry.Tracer
	// History is the store the telemetry scraper appends into, served by
	// /api/v1/query_range. Required.
	History *tsdb.DB
	// SLO evaluates alert rules against History, served by
	// /api/v1/alerts. Required.
	SLO *telemetry.SLO
	// Audit is the prediction audit ledger every model run is recorded
	// into, served by /api/v1/audit. Required.
	Audit *audit.Ledger
	// Incidents is the flight recorder whose bundles the incidents
	// endpoints serve. Nil leaves /api/v1/incidents answering 404.
	Incidents *incident.Recorder
	// Usage is the per-(tenant, topology) accountant every request and
	// model run is attributed to, served by /api/v1/usage. Required.
	Usage *usage.Accountant
	// Profiler is the continuous profiler whose windows, diffs and
	// flame stacks the profiles endpoints serve. Nil leaves
	// /api/v1/profiles answering 404.
	Profiler *profiler.Profiler
	// Scheduler is the bounded model-run scheduler every predict/plan/
	// calibrate request is queued through: identical concurrent requests
	// coalesce into one run, and admission control sheds excess load as
	// 429 + Retry-After with per-tenant fairness. Required.
	Scheduler *sched.Scheduler
	// CalCacheTTL bounds calibration-cache entry age; 0 means entries
	// only leave on tracker/packing changes and forced recalibrations.
	// Measured against Now, so a frozen demo clock never expires them.
	CalCacheTTL time.Duration
}

// NewService builds a service. The tracker, the metrics provider and
// the options marked Required must be non-nil; the rest have defaults
// or, Incidents and Profiler, switch their endpoints off.
func NewService(cfg config.Config, tr *tracker.Tracker, provider metrics.Provider, opts Options) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || provider == nil {
		return nil, errors.New("api: nil tracker or metrics provider")
	}
	for _, req := range []struct {
		field string
		unset bool
	}{
		{"Logger", opts.Logger == nil},
		{"Now", opts.Now == nil},
		{"Scheduler", opts.Scheduler == nil},
		{"History", opts.History == nil},
		{"SLO", opts.SLO == nil},
		{"Audit", opts.Audit == nil},
		{"Usage", opts.Usage == nil},
	} {
		if req.unset {
			return nil, fmt.Errorf("api: Options.%s is required", req.field)
		}
	}
	if opts.Telemetry == nil {
		opts.Telemetry = instrument.NewRegistry()
	}
	if opts.Tracer == nil {
		opts.Tracer = telemetry.NewTracer(0, nil)
	}
	reg := opts.Telemetry
	reg.SetHelp("caladrius_jobs_running", "Asynchronous modelling jobs currently executing.")
	reg.SetHelp("caladrius_jobs_completed_total", "Finished asynchronous jobs, by outcome.")
	s := &Service{
		cfg:         cfg,
		tracker:     tr,
		provider:    provider,
		graphs:      graph.NewCache(),
		jobs:        newJobStore(opts.Now),
		logger:      opts.Logger,
		now:         opts.Now,
		tel:         reg,
		tracer:      opts.Tracer,
		history:     opts.History,
		slo:         opts.SLO,
		audit:       opts.Audit,
		incidents:   opts.Incidents,
		usage:       opts.Usage,
		profiler:    opts.Profiler,
		jobsRunning: reg.Gauge("caladrius_jobs_running", nil),
		jobsDone:    reg.Counter("caladrius_jobs_completed_total", instrument.Labels{"outcome": "done"}),
		jobsFailed:  reg.Counter("caladrius_jobs_completed_total", instrument.Labels{"outcome": "failed"}),
		schedr:      opts.Scheduler,
		calcache: sched.NewCalCache(sched.CalCacheOptions{
			TTL:      opts.CalCacheTTL,
			Now:      opts.Now,
			Registry: reg,
		}),
	}
	// Tracker updates and packing-plan changes evict exactly the changed
	// topology's calibrated model and graph analyses; everything else
	// stays warm.
	tr.OnChange(s.invalidateModel)
	return s, nil
}

// Handler returns the REST API handler: the route table (routes.go)
// registered on a ServeMux, wrapped in the request telemetry middleware
// and access log.
func (s *Service) Handler() http.Handler { return s.router(routes) }

// --- request/response types ---------------------------------------------

// TrafficRequest asks for a source-throughput forecast for a topology.
type TrafficRequest struct {
	// SourceMinutes is the length of metric history to fit on: 0 for
	// the calibration lookback, at most maxSourceMinutes.
	SourceMinutes int `json:"source_minutes"`
	// HorizonMinutes is how far ahead to forecast: 0 for an hour, at
	// most maxHorizonMinutes.
	HorizonMinutes int `json:"horizon_minutes"`
	// Models optionally restricts which configured models run; empty
	// runs all configured models (the paper: "by default, the endpoint
	// will run all model implementations defined in the configuration
	// and concatenate the results").
	Models []string `json:"models,omitempty"`
}

// TrafficModelResult is one model's forecast output.
type TrafficModelResult struct {
	Model        string                 `json:"model"`
	Predictions  []forecast.Prediction  `json:"predictions"`
	SummaryStats *forecast.SummaryStats `json:"summary_stats,omitempty"`
}

// TrafficResponse is the traffic endpoint's result payload.
type TrafficResponse struct {
	Topology string               `json:"topology"`
	Results  []TrafficModelResult `json:"results"`
}

// PerformanceRequest asks for a topology performance prediction.
type PerformanceRequest struct {
	// Parallelism overrides component parallelisms (the proposed
	// packing plan of a dry-run update). Empty = current.
	Parallelism map[string]int `json:"parallelism,omitempty"`
	// SourceRateTPM is the topology source throughput t₀ to evaluate
	// at, in tuples/minute. Zero with UseForecast false means "use the
	// latest observed source rate".
	SourceRateTPM float64 `json:"source_rate_tpm,omitempty"`
	// UseForecast evaluates at the configured traffic model's peak
	// forecast over the horizon instead (preemptive scaling).
	UseForecast bool `json:"use_forecast,omitempty"`
	// HorizonMinutes and SourceMinutes shape that forecast, bounded
	// as TrafficRequest's are.
	HorizonMinutes int `json:"horizon_minutes,omitempty"`
	SourceMinutes  int `json:"source_minutes,omitempty"`
}

// PerformanceResponse is the performance endpoint's result payload.
type PerformanceResponse struct {
	Topology   string                  `json:"topology"`
	Prediction core.TopologyPrediction `json:"prediction"`
	// EvaluatedRateTPM is the source rate the prediction used.
	EvaluatedRateTPM float64 `json:"evaluated_rate_tpm"`
}

// finiteSaturation is a saturation source as the API and the audit
// ledger carry it. A topology or path that never saturates has
// saturation source +Inf (Eq. 13 has no finite solution), and JSON has
// no token for that; it goes out as the largest finite float — the
// registry's convention for the +Inf histogram bound — so "rate <
// saturation_source_tpm" still holds for every client.
func finiteSaturation(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// encodable applies finiteSaturation to a prediction and its paths.
func encodable(p *core.TopologyPrediction) {
	p.SaturationSource = finiteSaturation(p.SaturationSource)
	for i := range p.Paths {
		p.Paths[i].SaturationSource = finiteSaturation(p.Paths[i].SaturationSource)
	}
}

// --- handlers ------------------------------------------------------------

// RankEntry is one model's backtest outcome on the topology's own
// traffic history.
type RankEntry struct {
	Model    string  `json:"model"`
	MAPE     float64 `json:"mape"`
	RMSE     float64 `json:"rmse"`
	Coverage float64 `json:"interval_coverage"`
	Error    string  `json:"error,omitempty"`
}

// RankResponse orders the configured traffic models by backtest skill.
type RankResponse struct {
	Topology string      `json:"topology"`
	Ranking  []RankEntry `json:"ranking"`
}

// runRank backtests every configured traffic model on the topology's
// recent source-throughput history (final 20% held out) and ranks them
// by MAPE — the model-selection question the pluggable tier raises.
func (s *Service) runRank(ctx context.Context, topoName string, req TrafficRequest) (*RankResponse, error) {
	info, err := s.trackerGet(ctx, topoName)
	if err != nil {
		return nil, err
	}
	if req.SourceMinutes <= 0 {
		req.SourceMinutes = int(s.cfg.CalibrationLookback / time.Minute)
	}
	now := s.now()
	history, err := s.sourceRate(ctx, topoName, info.Topology.Spouts(), now.Add(-time.Duration(req.SourceMinutes)*time.Minute), now)
	if err != nil {
		return nil, fmt.Errorf("traffic history: %w", err)
	}
	candidates := make([]struct {
		Name    string
		Options map[string]any
	}, len(s.cfg.TrafficModels))
	for i, ref := range s.cfg.TrafficModels {
		candidates[i].Name, candidates[i].Options = ref.Name, ref.Options
	}
	_, sp := telemetry.StartSpan(ctx, "rank")
	defer sp.End()
	resp := &RankResponse{Topology: topoName}
	for _, r := range forecast.Rank(candidates, history, 0.2) {
		e := RankEntry{Model: r.Model, MAPE: r.Accuracy.MAPE, RMSE: r.Accuracy.RMSE, Coverage: r.Accuracy.Coverage}
		if r.Err != nil {
			e.Error = r.Err.Error()
		}
		resp.Ranking = append(resp.Ranking, e)
	}
	return resp, nil
}

// modelRoute is the handler of a model endpoint: decode the JSON body
// into the run's request type and queue the run through dispatch under
// op.
func modelRoute[Req, Resp any](op string, run func(*Service, context.Context, string, Req) (Resp, error)) func(*Service, http.ResponseWriter, *http.Request) {
	return func(s *Service, w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeBody(r.Body, &req); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errBodyTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, err.Error())
			return
		}
		topoName := r.PathValue("topology")
		s.dispatch(w, r, op, topoName, req, func(ctx context.Context) (any, error) { return run(s, ctx, topoName, req) })
	}
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "time": s.now().UTC()})
}

func (s *Service) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": forecast.Names()})
}

func (s *Service) handleGraph(w http.ResponseWriter, r *http.Request) {
	resp, err := s.graphInfo(r.PathValue("topology"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleJobTrace looks the id up in the tracer directly, so traces of
// synchronous runs (ids from the X-Caladrius-Trace header) are
// retrievable through the same endpoint.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tj, ok := s.tracer.Snapshot(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no trace for job %q (evicted or never ran)", id))
		return
	}
	writeJSON(w, http.StatusOK, tj)
}

// TraceHeader carries the trace id of a synchronous model run back to
// the client; async runs use their job id as the trace id.
const TraceHeader = "X-Caladrius-Trace"

// dispatch runs fn for a waiting client (?sync=true) or as an
// asynchronous job, opening a trace whose root span covers the whole
// model run. Async jobs trace under their job id; sync runs trace under
// the request's middleware-assigned trace id (already echoed in the
// TraceHeader response header), so the header, the access-log line and
// the span tree of one request share a single id.
//
// Every model run is queued through the scheduler instead of executing
// on the request goroutine: concurrency is bounded by the worker pool,
// identical concurrent requests coalesce into one run, queue time
// appears as a "queue-wait" span, and admission control may shed the
// request as 429 + Retry-After before any model work starts. Sync
// requests queue at High priority (a client is blocked on them), async
// jobs at Normal — except rank backtests, batch work that queues at Low
// either way. A GET has no job form: it always runs synchronously.
func (s *Service) dispatch(w http.ResponseWriter, r *http.Request, op, topoName string, req any, fn func(context.Context) (any, error)) {
	tenant := RequestTenant(r.Context())
	isSync := r.Method == http.MethodGet
	if v := r.URL.Query().Get("sync"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "sync: want true or false")
			return
		}
		isSync = isSync || b
	}
	sreq := sched.Request{
		Topology: topoName,
		Kind:     op,
		Tenant:   tenant,
		Hash:     requestHash(op, topoName, req),
		Priority: schedPriority(op, isSync),
	}
	if isSync {
		root := s.tracer.Start(RequestTraceID(r.Context()), op)
		root.SetAttr("path", r.URL.Path)
		root.SetAttr("mode", "sync")
		root.SetAttr("tenant", tenant)
		var result any
		h, err := s.schedr.Submit(telemetry.ContextWithSpan(r.Context(), root), sreq, fn)
		if err == nil {
			if h.Coalesced() {
				root.SetAttr("coalesced", "true")
			}
			// Wait under the request context: a disconnecting client
			// abandons its wait, but the run itself completes (other
			// coalesced waiters may share it) and is still audited.
			result, err = h.Wait(r.Context())
		}
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		root.End()
		w.Header().Set(TraceHeader, root.TraceID())
		if err != nil {
			s.logger.Warn("model request failed", "path", r.URL.Path, "err", err)
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, result)
		return
	}
	job := s.jobs.create()
	root := s.tracer.Start(job.ID, op)
	root.SetAttr("path", r.URL.Path)
	root.SetAttr("mode", "async")
	root.SetAttr("tenant", tenant)
	// The request context dies with the response; the job traces under
	// a fresh one. The tenant rides along so the run's cost still bills
	// the requester, not anonymous.
	ctx := telemetry.ContextWithSpan(ContextWithTenant(context.Background(), tenant), root)
	h, err := s.schedr.Submit(ctx, sreq, fn)
	if err != nil {
		// Shed before any model work started: the job never ran, so
		// it leaves no record — the client gets the 429 itself.
		s.jobs.remove(job.ID)
		root.SetAttr("error", err.Error())
		root.End()
		w.Header().Set(TraceHeader, root.TraceID())
		writeError(w, err)
		return
	}
	if h.Coalesced() {
		root.SetAttr("coalesced", "true")
	}
	s.jobs.start(job.ID)
	s.jobsRunning.Inc()
	h.OnDone(func(result any, err error) {
		defer s.jobsRunning.Dec()
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		root.End()
		s.jobs.complete(job.ID, result, err)
		if err != nil {
			s.jobsFailed.Inc()
		} else {
			s.jobsDone.Inc()
		}
	})
	w.Header().Set(TraceHeader, job.ID)
	w.Header().Set("Location", "/api/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job_id": job.ID,
		"poll":   "/api/v1/jobs/" + job.ID,
		"trace":  "/api/v1/jobs/" + job.ID + "/trace",
	})
}

// requestHash fingerprints a model request's inputs — operation,
// topology and the canonical JSON encoding of the request body — for
// coalescing. Forced recalibrations return 0 (the scheduler's
// never-coalesce sentinel): each explicit calibrate must run, though
// overlapping ones still share work through the calibration
// singleflight.
func requestHash(op, topoName string, req any) uint64 {
	if op == "calibrate" {
		return 0
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0
	}
	return sched.Hash64(op, topoName, string(body))
}

// schedPriority maps an operation to its queue priority: interactive
// sync requests outrank async jobs; rank backtests are batch work
// behind both.
func schedPriority(op string, isSync bool) sched.Priority {
	if op == "rank" {
		return sched.Low
	}
	if isSync {
		return sched.High
	}
	return sched.Normal
}

// --- model execution ------------------------------------------------------

// runTraffic fits the configured traffic models on the topology's
// source-throughput history up to the service clock and forecasts the
// horizon.
func (s *Service) runTraffic(ctx context.Context, topoName string, req TrafficRequest) (*TrafficResponse, error) {
	return s.traffic(ctx, topoName, req, s.now())
}

// traffic is runTraffic at the instant now, which a forecast-backed
// performance run shares with its calibration.
func (s *Service) traffic(ctx context.Context, topoName string, req TrafficRequest, now time.Time) (*TrafficResponse, error) {
	info, err := s.trackerGet(ctx, topoName)
	if err != nil {
		return nil, err
	}
	if req.SourceMinutes <= 0 {
		req.SourceMinutes = int(s.cfg.CalibrationLookback / time.Minute)
	}
	if req.HorizonMinutes <= 0 {
		req.HorizonMinutes = 60
	}
	start := now.Add(-time.Duration(req.SourceMinutes) * time.Minute)
	history, err := s.sourceRate(ctx, topoName, info.Topology.Spouts(), start, now)
	if err != nil {
		return nil, fmt.Errorf("traffic history: %w", err)
	}
	refs := s.cfg.TrafficModels
	if len(req.Models) > 0 {
		refs = nil
		for _, name := range req.Models {
			found := false
			for _, ref := range s.cfg.TrafficModels {
				if ref.Name == name {
					refs = append(refs, ref)
					found = true
					break
				}
			}
			if !found {
				refs = append(refs, config.ModelRef{Name: name})
			}
		}
	}
	resp := &TrafficResponse{Topology: topoName}
	horizon := forecast.Horizon(now, time.Minute, req.HorizonMinutes)
	for _, ref := range refs {
		_, sp := telemetry.StartSpan(ctx, "forecast:"+ref.Name)
		m, err := forecast.New(ref.Name, ref.Options)
		if err != nil {
			sp.End()
			return nil, err
		}
		if err := m.Fit(history); err != nil {
			sp.End()
			return nil, fmt.Errorf("model %s: %w", ref.Name, err)
		}
		preds, err := m.Predict(horizon)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", ref.Name, err)
		}
		result := TrafficModelResult{Model: ref.Name, Predictions: preds}
		if sm, ok := m.(*forecast.Summary); ok {
			if stats, err := sm.Stats(); err == nil {
				result.SummaryStats = &stats
			}
		}
		resp.Results = append(resp.Results, result)
	}
	return resp, nil
}

// runPerformance evaluates a proposed configuration.
func (s *Service) runPerformance(ctx context.Context, topoName string, req PerformanceRequest) (*PerformanceResponse, error) {
	now := s.now()
	tm, calCached, err := s.topologyModel(ctx, topoName, now)
	if err != nil {
		return nil, err
	}
	rate := req.SourceRateTPM
	if req.UseForecast {
		fctx, fsp := telemetry.StartSpan(ctx, "forecast")
		tr, err := s.traffic(fctx, topoName, TrafficRequest{
			SourceMinutes:  req.SourceMinutes,
			HorizonMinutes: req.HorizonMinutes,
			Models:         []string{s.cfg.TrafficModels[0].Name},
		}, now)
		fsp.End()
		if err != nil {
			return nil, err
		}
		// Preemptive scaling evaluates at the peak of the forecast's
		// upper band.
		for _, p := range tr.Results[0].Predictions {
			if p.Upper > rate {
				rate = p.Upper
			}
		}
	} else if rate, err = s.evalRate(ctx, topoName, now, rate); err != nil {
		return nil, err
	}
	// A run is counterfactual — audited for context but not graded —
	// when it evaluates anything other than the deployed configuration
	// at its currently observed rate.
	counterfactual := len(req.Parallelism) > 0 || req.SourceRateTPM != 0 || req.UseForecast
	_, psp := telemetry.StartSpan(ctx, "predict")
	pred, cost, err := tm.PredictMeasured(s.auditRecorder(ctx, topoName, "predict", counterfactual, calCached), &s.sampler, req.Parallelism, rate)
	psp.End()
	s.chargeRun(ctx, topoName, cost)
	if err != nil {
		return nil, err
	}
	encodable(&pred)
	return &PerformanceResponse{Topology: topoName, Prediction: pred, EvaluatedRateTPM: rate}, nil
}

// trackerGet fetches topology metadata under a "tracker.fetch" span.
func (s *Service) trackerGet(ctx context.Context, topoName string) (tracker.Info, error) {
	_, sp := telemetry.StartSpan(ctx, "tracker.fetch")
	defer sp.End()
	return s.tracker.Get(topoName)
}

// sourceRate queries source throughput under a "source-rate" span.
func (s *Service) sourceRate(ctx context.Context, topoName string, spouts []string, start, end time.Time) ([]tsdb.Point, error) {
	_, sp := telemetry.StartSpan(ctx, "source-rate")
	defer sp.End()
	return s.provider.SourceRate(topoName, spouts, start, end)
}

// evalRate is the source rate a predict/plan run evaluates at: the
// requested one, or — when zero — the last point of the trailing 15
// minutes of observed source throughput.
func (s *Service) evalRate(ctx context.Context, topoName string, now time.Time, rate float64) (float64, error) {
	if rate == 0 {
		info, err := s.trackerGet(ctx, topoName)
		if err != nil {
			return 0, err
		}
		pts, err := s.sourceRate(ctx, topoName, info.Topology.Spouts(), now.Add(-15*time.Minute), now)
		if err != nil {
			return 0, fmt.Errorf("current source rate: %w", err)
		}
		rate = pts[len(pts)-1].V
	}
	if rate < 0 || math.IsNaN(rate) {
		return 0, fmt.Errorf("%w: bad source rate %g", errInvalidRequest, rate)
	}
	return rate, nil
}

// topologyModel returns the calibrated model for the topology, served
// from the calibration cache while the packing-plan version and
// calibration lookback are unchanged (and the entry's TTL, when
// configured, has not passed); a miss calibrates over the lookback
// ending at now. cached reports whether the request skipped the
// fetch→calibrate stages — either a cache hit, or a wait on a
// calibration another concurrent request was already running (the
// cache's singleflight). The run is recorded under a "calibrate" span
// (attr cache=hit|miss|coalesced); on a true miss the core calibration
// reports per-component stage timings into it.
func (s *Service) topologyModel(ctx context.Context, topoName string, now time.Time) (tm *core.TopologyModel, cached bool, err error) {
	ctx, sp := telemetry.StartSpan(ctx, "calibrate")
	defer sp.End()
	info, err := s.trackerGet(ctx, topoName)
	if err != nil {
		return nil, false, err
	}
	tm, source, err := s.calcache.Load(topoName, info.Plan.Version, s.cfg.CalibrationLookback, func() (*core.TopologyModel, error) {
		return s.calibrate(ctx, topoName, info, now)
	})
	sp.SetAttr("cache", string(source))
	return tm, err == nil && source != sched.CalMiss, err
}

// calibrate is the miss path of topologyModel: a full recalibration
// over the lookback window ending at now.
func (s *Service) calibrate(ctx context.Context, topoName string, info tracker.Info, now time.Time) (*core.TopologyModel, error) {
	// A cache miss performs a full recalibration — usually the most
	// expensive run a request triggers, so it is metered and charged to
	// the requesting principal like any predict/plan run.
	mark := s.sampler.Begin()
	defer func() { s.chargeRun(ctx, topoName, s.sampler.End(mark)) }()

	start := now.Add(-s.cfg.CalibrationLookback)
	// Topology-aware calibration attributes backpressure to the true
	// bottleneck, discarding the spurious upstream backpressure that
	// burst-resume cycles induce.
	sp := telemetry.SpanFromContext(ctx)
	models, crep, err := core.CalibrateTopologyFromProviderReport(s.provider, info.Topology, start, now, core.CalibrationOptions{
		Warmup: s.cfg.CalibrationWarmup,
		Window: s.cfg.MetricsWindow,
		Stages: sp,
	})
	if err != nil {
		return nil, fmt.Errorf("calibrate %s: %w", topoName, err)
	}
	tm, err := core.NewTopologyModel(info.Topology, models)
	if err != nil {
		return nil, err
	}
	// A calibration that had to widen past metric gaps, or still ran on
	// sparse windows, is kept — but every prediction it makes is
	// flagged degraded in the audit ledger.
	tm.Degraded = crep.Degraded
	if crep.Degraded {
		sp.SetAttr("degraded", "true")
		s.logger.Warn("degraded calibration", "topology", topoName,
			"widened", crep.Widened.String(), "sparse", strings.Join(crep.Sparse, ","))
	}
	// Warm the graph cache alongside the model: analyses use both.
	if _, _, err := s.graphs.Get(info.Topology, info.Plan); err != nil {
		return nil, err
	}
	s.audit.NoteCalibration(topoName, now)
	s.logger.Info("calibrated topology model", "topology", topoName, "plan_version", info.Plan.Version)
	return tm, nil
}

// invalidateModel evicts one topology's calibrated model and graph
// analyses — the tracker change hook, also the first step of a forced
// recalibration.
func (s *Service) invalidateModel(topoName string) {
	s.calcache.Invalidate(topoName)
	s.graphs.Invalidate(topoName)
}

// runCalibrate forces a recalibration. The eviction happens here, inside
// the scheduled run: a calibrate that admission control sheds must leave
// the cached model in place.
func (s *Service) runCalibrate(ctx context.Context, topoName string, _ struct{}) (map[string]any, error) {
	s.invalidateModel(topoName)
	if _, _, err := s.topologyModel(ctx, topoName, s.now()); err != nil {
		return nil, err
	}
	return map[string]any{"topology": topoName, "calibrated": true}, nil
}

// runModel reports the calibrated model parameters, calibrating first
// on a cold cache — hence a scheduled run like any other.
func (s *Service) runModel(ctx context.Context, topoName string, _ struct{}) (ModelResponse, error) {
	tm, _, err := s.topologyModel(ctx, topoName, s.now())
	if err != nil {
		return ModelResponse{}, err
	}
	return modelJSON(topoName, tm), nil
}

// SuggestRequest asks the planner for the minimal parallelisms that
// absorb a source rate with headroom.
type SuggestRequest struct {
	// SourceRateTPM is the rate to plan for; zero means the latest
	// observed source rate.
	SourceRateTPM float64 `json:"source_rate_tpm,omitempty"`
	// Headroom is the planning margin (default 0.2).
	Headroom float64 `json:"headroom,omitempty"`
}

// SuggestResponse carries the suggested plan and its dry-run
// evaluation.
type SuggestResponse struct {
	Topology         string                  `json:"topology"`
	EvaluatedRateTPM float64                 `json:"evaluated_rate_tpm"`
	Parallelism      map[string]int          `json:"parallelism"`
	Prediction       core.TopologyPrediction `json:"prediction"`
}

// runSuggest plans the minimal safe parallelisms for a source rate.
func (s *Service) runSuggest(ctx context.Context, topoName string, req SuggestRequest) (*SuggestResponse, error) {
	now := s.now()
	tm, calCached, err := s.topologyModel(ctx, topoName, now)
	if err != nil {
		return nil, err
	}
	rate, err := s.evalRate(ctx, topoName, now, req.SourceRateTPM)
	if err != nil {
		return nil, err
	}
	headroom := req.Headroom
	if headroom == 0 {
		headroom = 0.2
	}
	if headroom < 0 {
		return nil, fmt.Errorf("%w: negative headroom %g", errInvalidRequest, headroom)
	}
	_, plSp := telemetry.StartSpan(ctx, "plan")
	plan, err := tm.SuggestParallelism(rate, headroom)
	plSp.End()
	if err != nil {
		return nil, err
	}
	// Plans evaluate a hypothetical parallelism — always counterfactual.
	_, prSp := telemetry.StartSpan(ctx, "predict")
	pred, cost, err := tm.PredictMeasured(s.auditRecorder(ctx, topoName, "plan", true, calCached), &s.sampler, plan, rate)
	prSp.End()
	s.chargeRun(ctx, topoName, cost)
	if err != nil {
		return nil, err
	}
	encodable(&pred)
	return &SuggestResponse{Topology: topoName, EvaluatedRateTPM: rate, Parallelism: plan, Prediction: pred}, nil
}

// GraphQueryRequest carries a Gremlin-style traversal to run against
// the topology's physical graph (Graph="logical" selects the
// component-level graph instead).
type GraphQueryRequest struct {
	Query string `json:"query"`
	Graph string `json:"graph,omitempty"`
}

// GraphQueryResponse returns the traversal result; its type depends on
// the terminal step (ids → strings, count → number, values → any list,
// path → string lists).
type GraphQueryResponse struct {
	Topology string `json:"topology"`
	Query    string `json:"query"`
	Result   any    `json:"result"`
}

// runGraphQuery executes a Gremlin-style query through the graph
// cache.
func (s *Service) runGraphQuery(ctx context.Context, topoName string, req GraphQueryRequest) (*GraphQueryResponse, error) {
	if strings.TrimSpace(req.Query) == "" {
		return nil, fmt.Errorf("%w: empty graph query", errInvalidRequest)
	}
	info, err := s.trackerGet(ctx, topoName)
	if err != nil {
		return nil, err
	}
	_, sp := telemetry.StartSpan(ctx, "graph-query")
	defer sp.End()
	logical, physical, err := s.graphs.Get(info.Topology, info.Plan)
	if err != nil {
		return nil, err
	}
	g := physical
	switch req.Graph {
	case "", "physical":
	case "logical":
		g = logical
	default:
		return nil, fmt.Errorf("%w: unknown graph %q (want logical or physical)", errInvalidRequest, req.Graph)
	}
	result, err := g.Query(req.Query)
	if err != nil {
		// The graph is built and cached; what can fail is the query text.
		return nil, fmt.Errorf("%w: %v", errInvalidRequest, err)
	}
	return &GraphQueryResponse{Topology: topoName, Query: req.Query, Result: result}, nil
}

// GraphResponse summarises the graph-helper analyses of a topology:
// logical/physical graph sizes, spout→sink paths, and per-stream
// cross-container traffic fractions.
type GraphResponse struct {
	Topology          string             `json:"topology"`
	PlanVersion       int                `json:"plan_version"`
	Containers        int                `json:"containers"`
	LogicalVertices   int                `json:"logical_vertices"`
	LogicalEdges      int                `json:"logical_edges"`
	PhysicalVertices  int                `json:"physical_vertices"`
	PhysicalEdges     int                `json:"physical_edges"`
	ComponentPaths    [][]string         `json:"component_paths"`
	InstancePathCount int                `json:"instance_path_count"`
	RemoteFractions   map[string]float64 `json:"remote_fractions"`
}

// graphInfo builds the graph analyses through the version-keyed cache.
func (s *Service) graphInfo(topoName string) (*GraphResponse, error) {
	info, err := s.tracker.Get(topoName)
	if err != nil {
		return nil, err
	}
	logical, physical, err := s.graphs.Get(info.Topology, info.Plan)
	if err != nil {
		return nil, err
	}
	return &GraphResponse{
		Topology:          topoName,
		PlanVersion:       info.Plan.Version,
		Containers:        len(info.Plan.Containers),
		LogicalVertices:   logical.VertexCount(),
		LogicalEdges:      logical.EdgeCount(),
		PhysicalVertices:  physical.VertexCount(),
		PhysicalEdges:     physical.EdgeCount(),
		ComponentPaths:    info.Topology.Paths(),
		InstancePathCount: info.Topology.InstancePathCount(),
		RemoteFractions:   graph.RemoteTransferFraction(info.Topology, info.Plan),
	}, nil
}

// ComponentModelJSON is the wire form of one calibrated component
// model, exposed by the model-inspection endpoint.
type ComponentModelJSON struct {
	Component   string  `json:"component"`
	Parallelism int     `json:"calibrated_parallelism"`
	Alpha       float64 `json:"alpha"`
	// SPTPM is the per-instance saturation point in tuples/minute;
	// null when saturation was never observed.
	SPTPM *float64 `json:"sp_tpm"`
	// STTPM is the per-instance saturation throughput α·SP.
	STTPM       *float64  `json:"st_tpm"`
	CPUPsi      float64   `json:"cpu_psi_cores_per_tpm"`
	InputShares []float64 `json:"input_shares,omitempty"`
}

// ModelResponse describes a topology's calibrated model.
type ModelResponse struct {
	Topology   string               `json:"topology"`
	Components []ComponentModelJSON `json:"components"`
}

func modelJSON(topoName string, tm *core.TopologyModel) ModelResponse {
	resp := ModelResponse{Topology: topoName}
	for _, name := range tm.Topology().ComponentNames() {
		m, ok := tm.Component(name)
		if !ok {
			continue
		}
		cj := ComponentModelJSON{
			Component:   m.Component,
			Parallelism: m.Parallelism,
			Alpha:       m.Instance.Alpha,
			CPUPsi:      m.CPUPsi,
			InputShares: m.InputShares,
		}
		if m.Instance.SaturatedObservable() {
			sp := m.Instance.SP
			st := m.Instance.ST()
			cj.SPTPM, cj.STTPM = &sp, &st
		}
		resp.Components = append(resp.Components, cj)
	}
	return resp
}

// --- plumbing --------------------------------------------------------------

// maxBodyBytes bounds a model request's JSON body.
const maxBodyBytes = 1 << 20

// errBodyTooLarge answers a body over maxBodyBytes with a 413.
var errBodyTooLarge = fmt.Errorf("request body exceeds the %d-byte (1 MiB) limit", maxBodyBytes)

// decodeBody decodes one JSON value into v; an empty body leaves v
// zero. Anything after the value but whitespace is an error: a second
// value would otherwise be dropped unread.
func decodeBody(body io.Reader, v any) error {
	data, err := io.ReadAll(io.LimitReader(body, maxBodyBytes+1))
	if err != nil {
		return err
	}
	if len(data) > maxBodyBytes {
		return errBodyTooLarge
	}
	if len(data) == 0 {
		return nil // all fields optional
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: data after the JSON value")
	}
	if w, ok := v.(interface{ windowMinutes() (int, int) }); ok {
		return checkWindows(w.windowMinutes())
	}
	return nil
}

// The largest history and horizon a forecast request may ask for: a
// year of history, the -warm-minutes ceiling, and a week ahead,
// Prophet's longest season. Each window's size is the size of a fit
// or of a response, so neither may be left to the client.
const (
	maxSourceMinutes  = 366 * 24 * 60
	maxHorizonMinutes = 7 * 24 * 60
)

// checkWindows refuses a negative or oversized history or horizon
// window, naming the field. Zero keeps meaning the default.
func checkWindows(sourceMinutes, horizonMinutes int) error {
	if sourceMinutes < 0 || sourceMinutes > maxSourceMinutes {
		return fmt.Errorf("bad request body: source_minutes %d outside [0, %d]", sourceMinutes, maxSourceMinutes)
	}
	if horizonMinutes < 0 || horizonMinutes > maxHorizonMinutes {
		return fmt.Errorf("bad request body: horizon_minutes %d outside [0, %d]", horizonMinutes, maxHorizonMinutes)
	}
	return nil
}

func (r *TrafficRequest) windowMinutes() (int, int)     { return r.SourceMinutes, r.HorizonMinutes }
func (r *PerformanceRequest) windowMinutes() (int, int) { return r.SourceMinutes, r.HorizonMinutes }

// errInvalidRequest marks a model run rejected for what the client
// asked (a negative rate, an unknown graph), not for anything the
// service did: a 400, never a 5xx.
var errInvalidRequest = errors.New("api: invalid request")

func statusFor(err error) int {
	var over *sched.ErrOverloaded
	switch {
	case errors.Is(err, errInvalidRequest):
		return http.StatusBadRequest
	case errors.As(err, &over):
		// Admission control shed the request: the service is healthy
		// but saturated, and this tenant is over its fair share. 429 —
		// unlike the 503 below, retrying as a different tenant would be
		// admitted, and the backend is not down.
		return http.StatusTooManyRequests
	case errors.Is(err, sched.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, tracker.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, metrics.ErrUnavailable):
		// Transient backend unavailability: the caller should retry,
		// not treat the request as failed for good. ErrUnavailable is
		// checked before ErrNoData — a wrapped unavailability error is
		// not an empty range.
		return http.StatusServiceUnavailable
	case errors.Is(err, tsdb.ErrNoData), errors.Is(err, core.ErrNotCalibrated), errors.Is(err, forecast.ErrInsufficentData):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// RetryAfterSeconds is the Retry-After hint attached to 503 responses.
const RetryAfterSeconds = 5

// writeError maps err onto an HTTP error response. 503s (provider
// down) carry a fixed Retry-After so well-behaved clients back off
// instead of hammering a backend that is already down; 429s (admission
// shed) carry the scheduler's backlog-derived Retry-After estimate.
func writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	switch status {
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	case http.StatusTooManyRequests:
		var over *sched.ErrOverloaded
		if errors.As(err, &over) {
			secs := int(over.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	}
	httpError(w, status, err.Error())
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}

// positiveParam reads query parameter name as a positive integer, or
// def when it is absent. Any other value answers a 400 naming the
// parameter and reports false.
func positiveParam(w http.ResponseWriter, q url.Values, name string, def int) (int, bool) {
	v := q.Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		httpError(w, http.StatusBadRequest, name+": want a positive integer")
		return 0, false
	}
	return n, true
}

// writeJSON encodes v before committing the status line, so a value
// encoding/json rejects becomes a JSON 500 instead of an empty body
// under the status the handler meant to send.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
