// Package caladrius_test holds the benchmark harness that regenerates
// every figure of the paper's evaluation (§V, Figures 4–12) plus the
// two system-level comparisons. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkExperiments sub-benchmark executes one row of the
// evaluation — simulator sweeps, model calibration, prediction and
// validation — and reports its figures' headline findings once.
// The service is measured by the benchmark module (benchmark/), which
// reports every layer of a request. The micro-benchmarks that follow
// are the few numbers its traced account cannot reproduce; each one's
// comment names the number it explains.
package caladrius_test

import (
	"context"
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
	"caladrius/internal/heron"
	"caladrius/internal/incident"
	"caladrius/internal/metrics"
	"caladrius/internal/telemetry"
	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
)

// benchSweep keeps figure benchmarks fast while preserving shape.
var benchSweep = experiments.SweepOptions{WarmupMinutes: 3, MeasureMinutes: 4, Tick: 200 * time.Millisecond, Repeats: 5, NoiseStd: 0.015}

var reportOnce sync.Map

// BenchmarkExperiments runs each row of the evaluation once per
// iteration, as a sub-benchmark named after the tables it produces
// (BenchmarkExperiments/fig04+fig05+fig06 is Figs. 4–6's one sweep),
// and logs the row's tables the first time. DESIGN.md's experiment
// index names these sub-benchmarks as the reproduction entry points.
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
// GOMAXPROCS)× on unloaded hardware. It explains the pool's speedup on
// one row; the benchmark measures the ratio over the whole figure suite
// as experiments.parallel_speedup.
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

// BenchmarkSimulatorMinute measures one simulated minute of the
// 12-instance word-count topology at the default 100 ms tick, without
// a registry, one Run per minute. It has no twin in the benchmark,
// whose heron.sim_minute_us times the daemon's warm-up shape (splitter
// 3, counter 4, 45e6 tuples/min, event telemetry into a registry);
// DESIGN.md's simulator section cites its numbers.
func BenchmarkSimulatorMinute(b *testing.B) {
	for _, c := range []struct {
		name string
		opts heron.WordCountOptions
	}{
		// bare runs at 8e6/min, below SP and without noise, so its
		// state is a fixed point and every minute after the first few
		// is replayed: it explains what a replayed minute costs, the
		// rate calls of the spout guards and one window's append.
		{"bare", heron.WordCountOptions{RatePerMinute: 8e6}},
		// noisy runs the same minute at DefaultSweep's σ. Every
		// instance has slack on every tick, so after the first minute
		// each window is committed whole from the slack memo: it
		// explains the committed minute of a figures-batch simulation
		// below saturation, the capacity draws and the coverage checks.
		{"noisy", heron.WordCountOptions{RatePerMinute: 8e6, ServiceNoiseStd: experiments.DefaultSweep.NoiseStd, NoiseSeed: 1}},
		// noisy-saturated runs 15e6/min, above SP, at the same σ: its
		// queues never drain, so every tick is stepped. It explains the
		// stepped minute of a saturated figures-batch simulation.
		{"noisy-saturated", heron.WordCountOptions{RatePerMinute: 15e6, ServiceNoiseStd: experiments.DefaultSweep.NoiseStd, NoiseSeed: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sim, err := heron.NewWordCount(c.opts)
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
// horizon. A simulation with an injector never replays, so this is a
// noiseless stepped minute with the chaos hook idle: it explains what
// a run under a fault plan (heronsim -faults, the chaos tests) pays a
// minute. The benchmark's heron.sim_minute_us is an injector-free,
// replayed minute.
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

// BenchmarkAuditResolveFullRing/live-clock measures one resolver pass
// over a full ring of 4,096 pending records against the simulated
// word-count history, each record a second older than the next, so
// every record asks for its own observation window. No workload of the
// benchmark reaches that path: the shipped daemon's frozen model clock
// gives every record the same window, which audit.resolve_ms times.
// Refilling the ring is not timed.
func BenchmarkAuditResolveFullRing(b *testing.B) {
	d, err := metrics.DeployWordCount(heron.WordCountOptions{SplitterP: 3, CounterP: 4, RatePerMinute: 45e6}, 0, 120)
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
	const ring = 4096 // the ledger's capacity
	b.Run("live-clock", func(b *testing.B) {
		led, err := audit.NewLedger(audit.Options{
			Provider: d.Provider, History: tsdb.New(time.Hour), Registry: telemetry.NewRegistry(),
			Now: func() time.Time { return d.AsOf }, SeriesNow: func() time.Time { return d.AsOf }, MetricsWindow: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < ring; j++ {
				rec.CreatedAt = d.AsOf.Add(-time.Duration(ring-1-j) * time.Second)
				led.Record(rec)
			}
			b.StartTimer()
			if n := led.ResolveOnce(d.AsOf); n != ring {
				b.Fatalf("ResolveOnce = %d, want %d", n, ring)
			}
		}
	})
}

// BenchmarkSLOEvaluateArmed measures one healthy SLO evaluation pass
// with the incident recorder's firing hook armed — the recorder's
// steady-state (idle) overhead on the evaluator loop. The hook slice is
// only copied when a rule transitions to firing, so an armed-but-idle
// recorder must cost nothing beyond the evaluation itself. It is the
// armed-hook twin of the benchmark's telemetry.slo_evaluate_us.
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
		Cooldown: 5 * time.Minute,
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

// benchDaemon assembles the daemon over warm minutes of simulated
// word-count history with the profiler off, and without Run: no loop
// scrapes, resolves or captures behind the path a benchmark names.
// tune switches back on what it measures.
func benchDaemon(b *testing.B, warm time.Duration, tune func(*daemon.Config)) *daemon.Daemon {
	b.Helper()
	dep, err := metrics.DeployWordCount(heron.WordCountOptions{RatePerMinute: 8e6}, 0, int(warm/time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	cfg := daemon.Default()
	cfg.Substrate = dep.Substrate
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
// over a trivial handler, isolating the telemetry overhead per request:
// the part of the benchmark's api.residual_us that is not the handler.
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

// BenchmarkPredictWarmCache measures a sync performance prediction
// when the calibration cache holds the topology's model, on a daemon
// without the continuous profiler: the baseline of the profiler's ≤1%
// serving-overhead budget (BenchmarkPredictProfilerOn). The benchmark
// never runs a daemon with the profiler off; it measures the
// calibration cache's two sides as core.predict_us (what a hit still
// pays) and core.calibrate_ms (what a miss adds).
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
// evaluation plus fan-out, not eight. It explains the win behind the
// benchmark's sched.coalesced_share, which counts coalesced runs but
// does not time them.
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

// BenchmarkPredictProfilerOn measures the same warm-cache predict path
// while the daemon's continuous profiler runs its capture loop in the
// background at ten times the shipped rate, so that a run of a few
// seconds spans several capture rounds: the 250ms CPU window every 1s
// instead of every 10s. The budget is ≤1% overhead against
// BenchmarkPredictWarmCache, min of three runs; held at ten times the
// shipped rate, it bounds the shipped overhead from above.
func BenchmarkPredictProfilerOn(b *testing.B) {
	d := benchDaemon(b, 5*time.Minute, func(c *daemon.Config) {
		c.ProfileInterval = time.Second
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
