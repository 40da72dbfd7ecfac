package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/audit"
	"caladrius/internal/core"
	"caladrius/internal/forecast"
	"caladrius/internal/heron"
	"caladrius/internal/sched"
	"caladrius/internal/tsdb"
)

// The traced run times the public functions of each internal/* layer
// in-process, on one goroutine, from the same seeded inputs the wire
// workloads use. README.md lists every function called here: a
// refactor that changes one of them needs a benchmark change first.

// timeOp returns fn's cost in nanoseconds per call: the median of five
// batch means, each batch sized to about 20 ms.
func timeOp(fn func()) float64 {
	fn() // warm caches and lazy set-up
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	n := 1
	if one < 20*time.Millisecond {
		n = int(20 * time.Millisecond / (one + 1))
		if n > 1_000_000 {
			n = 1_000_000
		}
		if n < 1 {
			n = 1
		}
	}
	means := make([]float64, 5)
	for b := range means {
		t0 = time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		means[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(means)
}

// allocsPerOp is the mean number of heap allocations of one call.
func allocsPerOp(fn func(), n int) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// discardWriter is the ResponseWriter the in-process handler calls
// write to.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// serve runs one request through the in-process handler.
func (s *stack) serve(r *request) error {
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req := httptest.NewRequest(r.Method, r.Path, body)
	req.Header.Set(tenantHeader, r.Tenant)
	w := &discardWriter{h: http.Header{}, status: http.StatusOK}
	s.handler.ServeHTTP(w, req)
	if w.status != http.StatusOK || w.n == 0 {
		return fmt.Errorf("in-process %s %s: status %d, %d bytes", r.Op, r.Body, w.status, w.n)
	}
	return nil
}

// auditRecord builds the ledger entry api.Service records for a run.
func auditRecord(r *request, rate float64, par map[string]int, pred core.TopologyPrediction, cost core.RunCost, tm *core.TopologyModel) audit.Record {
	cp := pred.CriticalPath()
	return audit.Record{
		Topology:          topologyName,
		Model:             r.Op,
		TraceID:           "replay",
		Tenant:            r.Tenant,
		Cost:              &cost,
		SourceRateTPM:     rate,
		Parallelism:       par,
		Counterfactual:    r.RateTPM != 0,
		CachedCalibration: true,
		Calibration:       tm.CalibrationSnapshot(),
		Predicted: audit.Predicted{
			SinkTPM:             pred.SinkThroughput,
			OutputTPM:           cp.OutputRate,
			SaturationSourceTPM: pred.SaturationSource,
			Bottleneck:          pred.Bottleneck,
			Risk:                string(pred.Risk),
			TotalCPUCores:       pred.TotalCPU,
			Sink:                cp.Path[len(cp.Path)-1],
		},
	}
}

// replayHot walks one predict or plan request through the layers of
// the calibration-cache-hit path, in path order, one child span per
// layer call under a "replay" root, then sends the same request
// through the whole handler under a sibling "handler" span.
func (s *stack) replayHot(rec *spanRecorder, id int, r *request) error {
	root := rec.start("replay", 0, id)
	sp := rec.start("tracker.Get", root, id)
	info, err := s.tracker.Get(topologyName)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.start("sched.CalCache.Lookup", root, id)
	tm, ok := s.calcache.Lookup(topologyName, info.Plan.Version, s.cfg.CalibrationLookback)
	rec.end(sp)
	if !ok {
		return fmt.Errorf("replay: calibration cache missed")
	}
	rate := r.RateTPM
	if rate == 0 {
		sp = rec.start("metrics.SourceRate", root, id)
		pts, err := s.provider.SourceRate(topologyName, info.Topology.Spouts(), s.asOf.Add(-15*time.Minute), s.asOf)
		rec.end(sp)
		if err != nil {
			return err
		}
		rate = pts[len(pts)-1].V
	}
	par := r.Parallelism
	if r.Op == opPlan {
		sp = rec.start("core.SuggestParallelism", root, id)
		par, err = tm.SuggestParallelism(rate, 0.2)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	sp = rec.start("core.PredictMeasured", root, id)
	pred, cost, err := tm.PredictMeasured(nil, s.sampler, par, rate)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.start("audit.Record", root, id)
	s.ledger.Record(auditRecord(r, rate, par, pred, cost, tm))
	rec.end(sp)
	sp = rec.start("usage.Begin+Finish+RecordRun", root, id)
	s.acct.Begin(r.Tenant, topologyName)
	s.acct.RecordRun(r.Tenant, topologyName, cost.Wall(), cost.CPU(), cost.AllocBytes, 0)
	s.acct.Finish(r.Tenant, topologyName, http.StatusOK, cost.Wall())
	rec.end(sp)
	sp = rec.start("sched.Submit+Wait", root, id)
	h, err := s.sched.Submit(context.Background(), sched.Request{Topology: topologyName, Kind: r.Op, Tenant: r.Tenant, Priority: sched.High},
		func(context.Context) (any, error) { return nil, nil })
	if err == nil {
		_, err = h.Wait(context.Background())
	}
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.start("json.Encode", root, id)
	err = json.NewEncoder(io.Discard).Encode(api.PerformanceResponse{Topology: topologyName, Prediction: pred, EvaluatedRateTPM: rate})
	rec.end(sp)
	rec.end(root)
	if err != nil {
		return err
	}
	sp = rec.start("handler", 0, id)
	err = s.serve(r)
	rec.end(sp)
	return err
}

// replayCold walks the calibration-cache-miss path: recalibrate,
// rebuild the graphs, fit and evaluate the forecast models, rank them.
func (s *stack) replayCold(rec *spanRecorder, id int, history []tsdb.Point) error {
	root := rec.start("replay", 0, id)
	sp := rec.start("core.CalibrateTopologyFromProviderReport", root, id)
	_, err := s.calibrate()
	rec.end(sp)
	if err != nil {
		return err
	}
	info, err := s.tracker.Get(topologyName)
	if err != nil {
		return err
	}
	sp = rec.start("graph.Cache.Get", root, id)
	s.graphs.Invalidate(topologyName)
	_, _, err = s.graphs.Get(info.Topology, info.Plan)
	rec.end(sp)
	if err != nil {
		return err
	}
	horizon := forecast.Horizon(s.asOf, time.Minute, 60)
	for _, ref := range s.cfg.TrafficModels {
		m, err := forecast.New(ref.Name, ref.Options)
		if err != nil {
			return err
		}
		sp = rec.start("forecast.Fit:"+ref.Name, root, id)
		err = m.Fit(history)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("forecast.Predict:"+ref.Name, root, id)
		_, err = m.Predict(horizon)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	sp = rec.start("forecast.Rank", root, id)
	ranking := forecast.Rank(s.rankCandidates(), history, 0.2)
	rec.end(sp)
	rec.end(root)
	for _, rk := range ranking {
		if rk.Err != nil {
			return fmt.Errorf("replay: rank %s: %w", rk.Model, rk.Err)
		}
	}
	sp = rec.start("handler", 0, id)
	err = s.serve(&request{Op: opCalibrate, Method: "POST", Path: topologyPath("calibrate"), Body: "{}", Tenant: tenants[0]})
	rec.end(sp)
	return err
}

func (s *stack) rankCandidates() []struct {
	Name    string
	Options map[string]any
} {
	c := make([]struct {
		Name    string
		Options map[string]any
	}, len(s.cfg.TrafficModels))
	for i, ref := range s.cfg.TrafficModels {
		c[i].Name, c[i].Options = ref.Name, ref.Options
	}
	return c
}

// Iteration counts of the two replayed paths. A cold iteration costs
// tens of milliseconds, so it gets fewer.
const (
	replayHotIterations  = 2000
	replayColdIterations = 30
)

// layerResult is what the in-process traced run produced.
type layerResult struct {
	metrics map[string]float64
	// hot and cold hold the spans of the two replayed paths.
	hot, cold *spanRecorder
	// hotStagesUS is Σ of the hot path's stage self-time medians.
	hotStagesUS float64
}

// runLayers builds the in-process stack and measures every layer.
func runLayers(seed int64) (*layerResult, error) {
	s, err := newStack(true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	m := map[string]float64{"heron.sim_minute_us": s.simMinS * 1e6}
	res := &layerResult{metrics: m, hot: newSpanRecorder(), cold: newSpanRecorder()}
	reqs := closedRing(servingWorkloads[0], seed, streamReplay, replayHotIterations)

	// Fill the ledger ring and usage table as the wire prefill does.
	for i := 0; i < prefillCount; i++ {
		if err := s.serve(&reqs[i%len(reqs)]); err != nil {
			return nil, err
		}
	}
	if len(s.ledger.List(audit.Filter{Limit: 1})) == 0 {
		return nil, fmt.Errorf("layers: in-process predicts left no audit record")
	}

	for i := range reqs {
		if err := s.replayHot(res.hot, i, &reqs[i]); err != nil {
			return nil, err
		}
	}

	self := res.hot.selfTimes()
	p50us := func(name string) float64 { return percentile(sortedCopy(self[name]), 50) / 1e3 }
	for name := range self {
		if name != "replay" && name != "handler" {
			// A stage only some requests pass through (SourceRate,
			// SuggestParallelism) counts by the share that do.
			res.hotStagesUS += p50us(name) * float64(len(self[name])) / float64(len(reqs))
		}
	}
	m["api.handler_us"] = p50us("handler")
	// Tracing cost: what recording a replayed request's spans takes, as
	// a share of the replay itself. Timing the replay with and without
	// spans gave -15 % to +25 %: the machine's noise, not the spans'.
	scratch := newSpanRecorder()
	spanNS := timeOp(func() { scratch.end(scratch.start("span", 0, 0)) })
	replayNS := percentile(sortedCopy(durations(res.hot, "replay")), 50) + percentile(sortedCopy(durations(res.hot, "handler")), 50)
	m["trace.overhead_pct"] = 100 * spanNS * float64(len(res.hot.spans)) / float64(len(reqs)) / replayNS
	m["api.residual_us"] = m["api.handler_us"] - res.hotStagesUS
	m["api.encode_predict_us"] = p50us("json.Encode")
	m["core.predict_us"] = p50us("core.PredictMeasured")
	m["core.suggest_us"] = p50us("core.SuggestParallelism")
	m["metrics.source_rate_us"] = p50us("metrics.SourceRate")
	m["audit.record_ns"] = p50us("audit.Record") * 1e3
	m["usage.begin_finish_ns"] = p50us("usage.Begin+Finish+RecordRun") * 1e3
	m["tracker.get_ns"] = p50us("tracker.Get") * 1e3
	m["sched.submit_us"] = p50us("sched.Submit+Wait")
	i := 0
	m["api.handler_allocs"] = allocsPerOp(func() { s.serve(&reqs[i%len(reqs)]); i++ }, 500)

	// Cold path.
	history, err := s.provider.SourceRate(topologyName, s.top.Spouts(), s.asOf.Add(-daemonWarmMinutes*time.Minute), s.asOf)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replayColdIterations; i++ {
		if err := s.replayCold(res.cold, i, history); err != nil {
			return nil, err
		}
	}
	cold := res.cold.selfTimes()
	cp50 := func(name string) float64 { return percentile(sortedCopy(cold[name]), 50) }
	m["core.calibrate_ms"] = cp50("core.CalibrateTopologyFromProviderReport") / 1e6
	m["core.calibrate_allocs"] = allocsPerOp(func() { s.calibrate() }, 5)
	m["graph.build_us"] = cp50("graph.Cache.Get") / 1e3
	m["forecast.prophet_fit_ms"] = cp50("forecast.Fit:prophet") / 1e6
	m["forecast.prophet_predict_us"] = cp50("forecast.Predict:prophet") / 1e3
	m["forecast.rank_ms"] = cp50("forecast.Rank") / 1e6

	if err := s.layerOps(m, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// layerOps times the layer calls that sit off the two replayed paths:
// caches, the ledger's readers and resolver, the usage table, the
// TSDB under dashboard reads, and the telemetry pipeline.
func (s *stack) layerOps(m map[string]float64, seed int64) error {
	info, err := s.tracker.Get(topologyName)
	if err != nil {
		return err
	}
	// Calibration cache at 1 and 256 resident topologies.
	m["sched.calcache_lookup_1_ns"] = timeOp(func() {
		s.calcache.Lookup(topologyName, info.Plan.Version, s.cfg.CalibrationLookback)
	})
	big := sched.NewCalCache(sched.CalCacheOptions{})
	for i := 0; i < 256; i++ {
		big.Store(fmt.Sprintf("topology-%03d", i), 1, s.cfg.CalibrationLookback, s.model)
	}
	m["sched.calcache_lookup_256_ns"] = timeOp(func() { big.Lookup("topology-128", 1, s.cfg.CalibrationLookback) })

	// Ledger: the ring is full after the replays.
	m["audit.list_us"] = timeOp(func() { s.ledger.List(audit.Filter{Limit: 50}) }) / 1e3
	records := s.ledger.List(audit.Filter{Limit: 50})
	m["api.encode_audit_us"] = timeOp(func() {
		json.NewEncoder(io.Discard).Encode(api.AuditListResponse{Records: records, Count: len(records), Stats: s.ledger.Stats()})
	}) / 1e3
	// One resolver pass over a full ring of pending records. Resolving
	// marks them, so each timed pass refills the ring first (untimed).
	proto := s.ledger.List(audit.Filter{Limit: 1})[0]
	passes := make([]float64, 1)
	for i := range passes {
		for j := 0; j < 4096; j++ {
			s.ledger.Record(proto)
		}
		t0 := time.Now()
		if n := s.ledger.ResolveOnce(s.asOf); n == 0 {
			return fmt.Errorf("layers: resolver joined no records")
		}
		passes[i] = float64(time.Since(t0)) / 1e6
	}
	m["audit.resolve_ms"] = median(passes)
	m["usage.snapshot_us"] = timeOp(func() { s.acct.Snapshot() }) / 1e3

	// Topology-metric reads behind calibration and forecasts.
	m["tsdb.query_us"] = timeOp(func() {
		s.db.Query(heron.MetricExecuteCount, tsdb.Labels{"topology": topologyName}, s.asOf.Add(-s.cfg.CalibrationLookback), s.asOf)
	}) / 1e3

	// Dashboard reads over the preloaded history.
	end := time.Now()
	hist := buildHistory(seed, end)
	panel := dashPanels[0]
	downsample := func(window, step time.Duration) func() {
		return func() {
			hist.Downsample(panel.metric, nil, end.Add(-window), end, step, tsdb.Agg(panel.agg), tsdb.Agg(panel.merge))
		}
	}
	if _, err := hist.Downsample(panel.metric, nil, end.Add(-5*time.Minute), end, 10*time.Second, tsdb.Agg(panel.agg), tsdb.Agg(panel.merge)); err != nil {
		return fmt.Errorf("layers: downsample: %w", err)
	}
	m["tsdb.downsample_5m_us"] = timeOp(downsample(5*time.Minute, 10*time.Second)) / 1e3
	m["tsdb.downsample_1h_us"] = timeOp(downsample(time.Hour, time.Minute)) / 1e3
	// One scrape-sized batch into the same store.
	specs := historySpecs()
	batch := make([]tsdb.BatchSample, len(specs))
	for i, spec := range specs {
		batch[i] = tsdb.BatchSample{H: hist.Handle(spec.metric, spec.labels), V: spec.lo}
	}
	at := end
	appendBatch := func() {
		at = at.Add(time.Millisecond)
		for i := range batch {
			batch[i].T = at
		}
		hist.AppendBatch(batch)
	}
	m["tsdb.append_batch_ns_per_sample"] = timeOp(appendBatch) / float64(len(batch))
	// The same read while a writer appends batches back to back: what
	// the store's lock costs a reader.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				appendBatch()
				runtime.Gosched()
			}
		}
	}()
	m["tsdb.downsample_under_append_us"] = timeOp(downsample(5*time.Minute, 10*time.Second)) / 1e3
	close(stop)
	<-done

	// Telemetry: a scrape of the live registry, the text exposition and
	// one SLO evaluation.
	scrapeAt := time.Now()
	scrape := func() {
		scrapeAt = scrapeAt.Add(5 * time.Second)
		s.scraper.ScrapeOnce(scrapeAt)
	}
	m["telemetry.scrape_ms"] = timeOp(scrape) / 1e6
	m["telemetry.scrape_allocs"] = allocsPerOp(scrape, 10)
	m["telemetry.exposition_ms"] = timeOp(func() { s.reg.WritePrometheus(io.Discard) }) / 1e6
	m["telemetry.slo_evaluate_us"] = timeOp(func() { s.slo.Evaluate() }) / 1e3
	return nil
}
