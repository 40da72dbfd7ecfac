// Package caladrius_test holds the benchmark harness that regenerates
// every figure of the paper's evaluation (§V, Figures 4–12) plus the
// two system-level comparisons. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkExperiments sub-benchmark executes one row of the
// evaluation — simulator sweeps, model calibration, prediction and
// validation — and reports its figures' headline findings once.
// Micro-benchmarks for the hot paths (simulation stepping, model
// evaluation, forecasting, metrics queries) follow.
package caladrius_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/audit"
	"caladrius/internal/chaos"
	"caladrius/internal/core"
	"caladrius/internal/daemon"
	"caladrius/internal/experiments"
	"caladrius/internal/forecast"
	"caladrius/internal/heron"
	"caladrius/internal/incident"
	"caladrius/internal/metrics"
	"caladrius/internal/telemetry"
	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
	"caladrius/internal/workload"
)

// benchSweep keeps figure benchmarks fast while preserving shape.
var benchSweep = experiments.SweepOptions{WarmupMinutes: 3, MeasureMinutes: 4, Tick: 200 * time.Millisecond, Repeats: 5, NoiseStd: 0.015}

var reportOnce sync.Map

// BenchmarkExperiments runs each row of the evaluation once per
// iteration, as a sub-benchmark named after the tables it produces
// (BenchmarkExperiments/fig04+fig05+fig06 is Figs. 4–6's one sweep),
// and logs the row's tables the first time.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Experiments {
		name := strings.Join(e.Tables, "+")
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := e.Run(benchSweep)
				if err != nil {
					b.Fatal(err)
				}
				if _, loaded := reportOnce.LoadOrStore(name, true); !loaded {
					for _, tbl := range tables {
						b.Logf("\n%s", tbl.ASCII())
					}
				}
			}
		})
	}
}

// BenchmarkSweepParallel pits the sweep engine's worker pool against
// the sequential path on the same multi-rate sweep (Figs. 4–6: 20 rate
// points × 5 repeats = 100 independent simulations). The outputs are
// byte-identical; only the wall clock differs, by up to min(8,
// GOMAXPROCS)× on unloaded hardware. The benchmark measures the ratio
// over the whole figure suite as experiments.parallel_speedup.
func benchSweepParallel(b *testing.B, parallelism int) {
	b.Helper()
	sweep := benchSweep
	sweep.Parallelism = parallelism
	row, ok := experiments.Lookup("fig04")
	if !ok {
		b.Fatal("no row produces fig04")
	}
	for i := 0; i < b.N; i++ {
		if _, err := row.Run(sweep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepParallel1(b *testing.B) { benchSweepParallel(b, 1) }
func BenchmarkSweepParallel8(b *testing.B) { benchSweepParallel(b, 8) }

// --- micro-benchmarks -----------------------------------------------------

// BenchmarkSimulatorMinute measures the cost of simulating one minute
// at the default 100 ms tick, one Run per minute. bare is the
// 12-instance word-count topology without a registry; daemon is the
// demo daemon's warm-up shape (splitter 3, counter 4, 45e6 tuples/min,
// event telemetry into a registry), the minute heron.sim_minute_us
// times at boot.
func BenchmarkSimulatorMinute(b *testing.B) {
	for _, c := range []struct {
		name     string
		opts     heron.WordCountOptions
		registry bool
	}{
		{"bare", heron.WordCountOptions{RatePerMinute: 8e6}, false},
		{"daemon", heron.WordCountOptions{SplitterP: 3, CounterP: 4, RatePerMinute: 45e6}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := c.opts
			if c.registry {
				opts.Metrics = telemetry.NewRegistry()
			}
			sim, err := heron.NewWordCount(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Run(time.Minute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorMinuteWithInjector measures the same minute with a
// fault injector attached whose plan never fires inside the benchmark
// horizon — the per-tick cost of the chaos hook itself. The fault-free
// overhead budget is <5% over BenchmarkSimulatorMinute/bare at 0
// allocs/op.
// The benchmark's heron.sim_minute_us is the injector-free minute.
func BenchmarkSimulatorMinuteWithInjector(b *testing.B) {
	sim, err := heron.NewWordCount(heron.WordCountOptions{RatePerMinute: 8e6})
	if err != nil {
		b.Fatal(err)
	}
	top, err := heron.WordCountTopology(8, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	pack, err := topology.RoundRobinPack(top, 2)
	if err != nil {
		b.Fatal(err)
	}
	plan := &chaos.Plan{Faults: []chaos.Fault{{
		Kind: chaos.FaultSlow, At: chaos.Duration(10_000 * time.Hour),
		Duration: chaos.Duration(time.Minute), Component: "splitter", Instance: 0, Factor: 0.5,
	}}}
	inj, err := chaos.NewInjector(plan, top, pack)
	if err != nil {
		b.Fatal(err)
	}
	sim.WithFaultInjector(inj)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Run(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyPredict measures one dry-run evaluation of a
// proposed configuration — the operation Caladrius performs instead of
// a deployment.
func BenchmarkTopologyPredict(b *testing.B) {
	top, err := heron.WordCountTopology(8, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	models := map[string]*core.ComponentModel{
		"spout":    {Component: "spout", Parallelism: 8, Instance: core.InstanceModel{Alpha: 1, SP: 3e8}},
		"splitter": {Component: "splitter", Parallelism: 3, Instance: core.InstanceModel{Alpha: 7.635, SP: 10.8e6}, CPUPsi: 1e-7},
		"counter":  {Component: "counter", Parallelism: 4, Instance: core.InstanceModel{Alpha: 0.001, SP: 68.4e6}, CPUPsi: 1.2e-8},
	}
	tm, err := core.NewTopologyModel(top, models)
	if err != nil {
		b.Fatal(err)
	}
	overrides := map[string]int{"splitter": 6, "counter": 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tm.Predict(overrides, 45e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProphetFit measures fitting the Prophet-substitute on one
// week of per-minute history (10 080 points).
func BenchmarkProphetFit(b *testing.B) {
	spec := workload.TrafficSpec{Base: 1e6, DailyAmplitude: 0.4, NoiseStd: 0.02, Seed: 1}
	history := spec.Generate(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC), 7*24*60, time.Minute)
	pts := make([]tsdb.Point, len(history))
	for i, p := range history {
		pts[i] = tsdb.Point{T: p.T, V: p.V}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := forecast.New("prophet", nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Fit(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSDBAppend measures raw metric ingestion by a writer that
// keeps no handle: every call interns one (canonicalising and copying
// the label set) and resolves the series through two map lookups.
func BenchmarkTSDBAppend(b *testing.B) {
	db := tsdb.New(0)
	labels := tsdb.Labels{"topology": "wc", "component": "splitter", "instance": "0"}
	t0 := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Handle("execute-count", labels).Append(t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
}

// BenchmarkTSDBAppendHandle measures the same ingestion through an
// interned series handle, the simulator's flush path: the label work
// happens once at Handle time.
func BenchmarkTSDBAppendHandle(b *testing.B) {
	db := tsdb.New(0)
	h := db.Handle("execute-count", tsdb.Labels{"topology": "wc", "component": "splitter", "instance": "0"})
	t0 := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Append(t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
}

// BenchmarkTSDBDownsample measures the two query shapes the daemon
// issues: the component rollup calibration reads (4 instances × one day
// of minutes, summed), and the calctl dash request-rate panel (72 series
// × 720 points at 5 s) at its 5 m/10 s and zoomed-out 1 h/60 s ranges —
// the go-test twins of the benchmark's tsdb.downsample_{5m,1h}_us.
func BenchmarkTSDBDownsample(b *testing.B) {
	t0 := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	rollup := tsdb.New(0)
	for inst := 0; inst < 4; inst++ {
		h := rollup.Handle("execute-count", tsdb.Labels{"component": "splitter", "instance": fmt.Sprintf("%d", inst)})
		for m := 0; m < 1440; m++ {
			h.Append(t0.Add(time.Duration(m)*time.Minute), float64(m))
		}
	}
	panel := tsdb.New(0)
	for s := 0; s < 72; s++ {
		h := panel.Handle("requests:rate", tsdb.Labels{"route": fmt.Sprintf("/r%d", s/6), "method": []string{"GET", "POST"}[s%2], "class": fmt.Sprintf("%dxx", 2+s%3)})
		for i := 0; i < 720; i++ {
			h.Append(t0.Add(time.Duration(i)*5*time.Second), float64(s*i%41))
		}
	}
	end := t0.Add(time.Hour)
	for _, q := range []struct {
		name          string
		db            *tsdb.DB
		metric        string
		sel           tsdb.Labels
		start, end    time.Time
		step          time.Duration
		bucket, merge tsdb.Agg
	}{
		{"rollup-day", rollup, "execute-count", tsdb.Labels{"component": "splitter"}, t0, t0.Add(24 * time.Hour), time.Minute, tsdb.AggSum, tsdb.AggSum},
		{"panel-5m", panel, "requests:rate", nil, end.Add(-5 * time.Minute), end, 10 * time.Second, tsdb.AggMean, tsdb.AggSum},
		{"panel-1h", panel, "requests:rate", nil, end.Add(-time.Hour), end, time.Minute, tsdb.AggMean, tsdb.AggSum},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.db.Downsample(q.metric, q.sel, q.start, q.end, q.step, q.bucket, q.merge); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAuditResolveFullRing measures one resolver pass over a full
// ring of 4,096 pending records against the simulated word-count
// history — the go-test twin of the benchmark's audit.resolve_ms. With
// a frozen clock (the shipped daemon's model clock) every record asks
// for the same observation window; with a live clock every record has
// its own. Refilling the ring is not timed.
func BenchmarkAuditResolveFullRing(b *testing.B) {
	sub, err := heron.SimulateWordCount(heron.WordCountOptions{SplitterP: 3, CounterP: 4, RatePerMinute: 45e6}, 2*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	prov, err := metrics.NewTSDBProvider(sub.DB, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	rec := audit.Record{
		Topology:      "word-count",
		Model:         "predict",
		SourceRateTPM: 45e6,
		Calibration: []core.ComponentCalibration{
			{Component: "counter", Parallelism: 4}, {Component: "splitter", Parallelism: 3}, {Component: "spout", Parallelism: 8},
		},
		Predicted: audit.Predicted{SinkTPM: 2.4e8, Risk: "high", Sink: "counter", TotalCPUCores: 9},
	}
	const ring = 4096
	for _, clock := range []struct {
		name string
		tick time.Duration // between consecutive records' CreatedAt
	}{{"frozen-clock", 0}, {"live-clock", time.Second}} {
		b.Run(clock.name, func(b *testing.B) {
			led, err := audit.NewLedger(audit.Options{
				Provider: prov, History: tsdb.New(time.Hour), Registry: telemetry.NewRegistry(),
				Now: func() time.Time { return sub.AsOf }, Capacity: ring,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < ring; j++ {
					rec.CreatedAt = sub.AsOf.Add(-time.Duration(ring-1-j) * clock.tick)
					led.Record(rec)
				}
				b.StartTimer()
				if n := led.ResolveOnce(sub.AsOf); n != ring {
					b.Fatalf("ResolveOnce = %d, want %d", n, ring)
				}
			}
		})
	}
}

// BenchmarkAuditRecord measures the audit ledger's record hot path —
// every prediction request pays it synchronously. After the first
// record interns the per-(topology, model) counters, Record must not
// allocate: the ring is preallocated and overwritten in place.
func BenchmarkAuditRecord(b *testing.B) {
	prov, err := metrics.NewTSDBProvider(tsdb.New(0), time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	led, err := audit.NewLedger(audit.Options{Provider: prov, History: tsdb.New(0), Registry: telemetry.NewRegistry(), Now: func() time.Time { return t0 }})
	if err != nil {
		b.Fatal(err)
	}
	rec := audit.Record{
		Topology:      "word-count",
		Model:         "predict",
		CreatedAt:     t0,
		SourceRateTPM: 20e6,
		Calibration:   []core.ComponentCalibration{{Component: "counter", Parallelism: 4, Alpha: 0.001}},
		Predicted:     audit.Predicted{SinkTPM: 1.9e7, Risk: "low", Sink: "counter", TotalCPUCores: 2},
	}
	led.Record(rec) // interns the run counters for this (topology, model)
	if allocs := testing.AllocsPerRun(100, func() { led.Record(rec) }); allocs != 0 {
		b.Fatalf("Record allocates %.1f/op on the ring-overwrite path, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		led.Record(rec)
	}
}

// BenchmarkCounterInc measures the telemetry hot path: incrementing a
// pre-registered counter must not allocate.
func BenchmarkCounterInc(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_total", telemetry.Labels{"route": "/x"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkLogRingAppend measures the flight recorder's log-ring hot
// path — every access-log record teed through the ring handler lands
// here. Once warm the ring overwrites slots in place, reusing each
// slot's attr buffer: 0 allocs/op.
func BenchmarkLogRingAppend(b *testing.B) {
	const capacity = 1024
	r := telemetry.NewLogRing(capacity)
	attrs := []byte("method=GET route=/api/v1/health status=200 duration_ms=0.42")
	t0 := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 2*capacity; i++ {
		r.Append(t0, slog.LevelInfo, "http request", "req-1", attrs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Append(t0, slog.LevelInfo, "http request", "req-1", attrs)
	}); allocs != 0 {
		b.Fatalf("Append allocates %.1f/op on the warm path, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append(t0, slog.LevelInfo, "http request", "req-1", attrs)
	}
}

// BenchmarkSLOEvaluateArmed measures one healthy SLO evaluation pass
// with the incident recorder's firing hook armed — the recorder's
// steady-state (idle) overhead on the evaluator loop. The hook slice is
// only copied when a rule transitions to firing, so an armed-but-idle
// recorder must cost nothing beyond the evaluation itself.
func BenchmarkSLOEvaluateArmed(b *testing.B) {
	reg := telemetry.NewRegistry()
	db := tsdb.New(24 * time.Hour)
	t0 := time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)
	for i := -20; i <= 0; i++ {
		db.Handle("caladrius_model_mape", nil).Append(t0.Add(time.Duration(i)*time.Minute), 0.01)
	}
	now := t0.Add(time.Second)
	slo, err := telemetry.NewSLO(db, reg, func() time.Time { return now },
		telemetry.ModelAccuracyRules(0.08, 24*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	rec, err := incident.New(incident.Options{
		Dir:      b.TempDir(),
		Registry: reg,
		History:  db,
		Logs:     telemetry.NewLogRing(0),
		Tracer:   telemetry.NewTracer(0, nil),
		Now:      func() time.Time { return now },
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Close()
	slo.OnFiring(rec.FiringHook())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slo.Evaluate()
	}
}

// BenchmarkHistogramObserve measures recording one latency sample into
// a pre-registered histogram.
func BenchmarkHistogramObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("bench_seconds", telemetry.DefLatencyBuckets, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

// BenchmarkRegistryLookup measures re-resolving an instrument handle
// through the registry, the path handlers take when they have not
// cached the handle.
func BenchmarkRegistryLookup(b *testing.B) {
	reg := telemetry.NewRegistry()
	labels := telemetry.Labels{"route": "/x", "class": "2xx"}
	reg.Counter("bench_total", labels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench_total", labels).Inc()
	}
}

// benchDaemon assembles the daemon over warm minutes of simulated
// word-count history with the profiler off, and without Run: no loop
// scrapes, resolves or captures behind the path a benchmark names.
// tune switches back on what it measures.
func benchDaemon(b *testing.B, warm time.Duration, tune func(*daemon.Config)) *daemon.Daemon {
	b.Helper()
	sub, err := heron.SimulateWordCount(heron.WordCountOptions{RatePerMinute: 8e6}, warm)
	if err != nil {
		b.Fatal(err)
	}
	cfg := daemon.Default()
	cfg.Substrate = sub
	cfg.CalibrationLookback = warm
	cfg.CalibrationWarmup = 2
	cfg.LogOutput = io.Discard
	cfg.ProfileInterval = 0
	if tune != nil {
		tune(&cfg)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = d.Close() })
	return d
}

// BenchmarkMiddlewareRequest measures the full instrumented request
// path — route classification, counters, histogram, access log, and
// usage attribution (tenant-header sanitisation, route → topology
// mapping, the accountant's Begin/Finish pair on a warm principal) —
// over a trivial handler, isolating the telemetry overhead per request.
func BenchmarkMiddlewareRequest(b *testing.B) {
	handler := benchDaemon(b, 2*time.Minute, nil).Handler()
	req := httptest.NewRequest("GET", "/api/v1/health", nil)
	req.Header.Set(api.TenantHeader, "bench-tenant")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
	}
}

// BenchmarkUsageRecord measures the usage accountant's request hot
// path — Begin plus Finish on a warm (tenant, topology) principal, the
// cost the middleware adds per attributed request. The per-principal
// instruments are interned at first touch; after that the path must
// not allocate.
func BenchmarkUsageRecord(b *testing.B) {
	acct := usage.New(usage.Options{Registry: telemetry.NewRegistry()})
	record := func() {
		acct.Begin("bench", "word-count")
		acct.Finish("bench", "word-count", 200, 42*time.Microsecond)
	}
	record() // interns the principal and its instruments
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		b.Fatalf("Begin+Finish allocates %.1f/op on the warm path, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}

func benchPredict(b *testing.B, handler http.Handler) {
	b.Helper()
	req := httptest.NewRequest("POST", "/api/v1/model/topology/word-count/performance?sync=true",
		strings.NewReader(`{"source_rate_tpm": 8000000}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("predict = %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkPredictColdCache measures a sync performance prediction that
// must recalibrate from provider metrics every time: each iteration
// re-registers the packing plan, which fires the tracker change hook
// and evicts the topology's calibration-cache entry.
func BenchmarkPredictColdCache(b *testing.B) {
	d := benchDaemon(b, 5*time.Minute, nil)
	handler := d.Handler()
	info, err := d.Tracker.Get("word-count")
	if err != nil {
		b.Fatal(err)
	}
	benchPredict(b, handler) // warm code paths; cache is evicted per iteration below
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := d.Tracker.Update(info.Topology, info.Plan); err != nil { // evicts the cache entry
			b.Fatal(err)
		}
		b.StartTimer()
		benchPredict(b, handler)
	}
}

// BenchmarkPredictWarmCache measures the same prediction when the
// calibration cache holds the topology's model: the request skips the
// provider fetch and component fitting entirely. The warm-vs-cold
// ratio is the calibration cache's headline win; the acceptance floor
// is 5x. The benchmark measures the two sides as core.predict_us (what
// a hit still pays) and core.calibrate_ms (what a miss adds).
func BenchmarkPredictWarmCache(b *testing.B) {
	handler := benchDaemon(b, 5*time.Minute, nil).Handler()
	benchPredict(b, handler) // populate the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPredict(b, handler)
	}
}

// BenchmarkCoalescedPredict measures a burst of identical concurrent
// sync predictions through the scheduler: duplicates coalesce onto the
// leader's in-flight run, so one burst costs about one model
// evaluation plus fan-out, not eight.
func BenchmarkCoalescedPredict(b *testing.B) {
	handler := benchDaemon(b, 5*time.Minute, func(c *daemon.Config) {
		c.SchedWorkers, c.SchedQueueDepth = 2, 64
	}).Handler()
	benchPredict(b, handler) // populate the calibration cache
	const burst = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < burst; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				benchPredict(b, handler)
			}()
		}
		wg.Wait()
	}
}

// BenchmarkPackingPlan measures round-robin packing of a larger
// topology.
func BenchmarkPackingPlan(b *testing.B) {
	top, err := topology.NewBuilder("big").
		AddSpout("s", 32).
		AddBolt("b1", 64).
		AddBolt("b2", 128).
		Connect("s", "b1", topology.ShuffleGrouping).
		Connect("b1", "b2", topology.FieldsGrouping, "k").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topology.RoundRobinPack(top, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictProfilerOff measures the warm-cache sync predict
// path on a service without the continuous profiler — the baseline
// for the profiler's serving-overhead budget.
func BenchmarkPredictProfilerOff(b *testing.B) {
	handler := benchDaemon(b, 5*time.Minute, nil).Handler()
	benchPredict(b, handler) // populate the calibration cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPredict(b, handler)
	}
}

// BenchmarkPredictProfilerOn measures the same warm-cache predict path
// while the continuous profiler runs its capture loop in the
// background at the default 2.5% duty cycle, time-compressed so a
// multi-second bench run spans many capture rounds (25ms CPU window
// per 1s interval instead of 250ms per 10s). The budget is ≤1%
// overhead against BenchmarkPredictWarmCache.
func BenchmarkPredictProfilerOn(b *testing.B) {
	d := benchDaemon(b, 5*time.Minute, func(c *daemon.Config) {
		c.ProfileInterval = time.Second
		c.ProfileCPUWindow = 25 * time.Millisecond
		c.ProfileEpoch = 10 * time.Second
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Profiler.Run(ctx)
	handler := d.Handler()
	benchPredict(b, handler) // populate the calibration cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPredict(b, handler)
	}
}
