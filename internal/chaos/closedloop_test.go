package chaos

import (
	"math"
	"testing"
	"time"

	"caladrius/internal/audit"
	"caladrius/internal/core"
	"caladrius/internal/heron"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/telemetry"
	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
)

// The chaos closed loop: the full self-monitoring chain — simulator,
// calibrated model, audit ledger, drift SLO — exercised by an injected
// fault instead of a workload shift. A slow fault degrading every
// splitter instance makes the live topology fall away from its (still
// correct at calibration time) model, the accuracy-drift alert fires
// while the fault is active, and clears after the fault ends and the
// model is recalibrated.

// loopRecorder adapts the ledger to core.RunRecorder the way the API
// tier does, including the degraded-calibration flag.
type loopRecorder struct {
	led *audit.Ledger
}

func (r loopRecorder) RecordRun(run core.ModelRun) {
	p := run.Prediction
	sat := p.SaturationSource
	if math.IsInf(sat, 1) {
		sat = math.MaxFloat64
	}
	cp := p.CriticalPath()
	sink := ""
	if len(cp.Path) > 0 {
		sink = cp.Path[len(cp.Path)-1]
	}
	r.led.Record(audit.Record{
		Topology:      "word-count",
		Model:         "predict",
		SourceRateTPM: run.SourceRate,
		Parallelism:   run.Parallelism,
		Degraded:      run.Degraded,
		Calibration:   run.Calibration,
		Predicted: audit.Predicted{
			SinkTPM:             p.SinkThroughput,
			OutputTPM:           cp.OutputRate,
			SaturationSourceTPM: sat,
			Bottleneck:          p.Bottleneck,
			Risk:                string(p.Risk),
			TotalCPUCores:       p.TotalCPU,
			Sink:                sink,
		},
	})
}

func alertState(t *testing.T, slo *telemetry.SLO, rule string) telemetry.AlertState {
	t.Helper()
	for _, a := range slo.Evaluate() {
		if a.Rule == rule {
			return a.State
		}
	}
	t.Fatalf("rule %s not evaluated", rule)
	return ""
}

func TestClosedLoopDriftDuringSlowFault(t *testing.T) {
	const (
		rate      = 20e6 // tuples/minute; splitter p=3 SP ≈ 32.4e6
		rollingN  = 20   // the audit ledger's rolling MAPE window
		driftMAPE = 0.08
	)

	sim, err := heron.NewWordCount(heron.WordCountOptions{
		SplitterP:     3,
		CounterP:      4,
		RatePerMinute: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := heron.WordCountTopology(8, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := topology2(topo)
	if err != nil {
		t.Fatal(err)
	}

	// Slow ×0.5 on every splitter instance for minutes [36, 62), long
	// enough for phase 2 to audit a whole rolling window under it: the
	// degraded component capacity (16.2 M/min) falls below the offered
	// 20 M/min, so observed sink throughput drops ≈ 23% under what the
	// healthy calibration predicts — past the 8% drift budget.
	plan := &Plan{Faults: []Fault{{
		Kind:      FaultSlow,
		At:        Duration(36 * time.Minute),
		Duration:  Duration(26 * time.Minute),
		Component: "splitter",
		Instance:  AllInstances,
		Factor:    0.5,
	}}}
	inj, err := NewInjector(plan, topo, pack)
	if err != nil {
		t.Fatal(err)
	}
	sim.WithFaultInjector(inj)

	start := sim.Start()
	if err := sim.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	prov, err := metrics.NewTSDBProvider(sim.DB(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	now := start.Add(30 * time.Minute)
	models, _, err := core.CalibrateTopologyFromProviderReport(prov, topo, start, now, core.CalibrationOptions{Warmup: 3})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := core.NewTopologyModel(topo, models)
	if err != nil {
		t.Fatal(err)
	}

	db := tsdb.New(24 * time.Hour)
	reg := instrument.NewRegistry()
	led, err := audit.NewLedger(audit.Options{
		Provider:      prov,
		History:       db,
		Registry:      reg,
		Now:           func() time.Time { return now },
		SeriesNow:     func() time.Time { return now },
		MetricsWindow: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	led.NoteCalibration("word-count", now)
	slo, err := telemetry.NewSLO(db, reg, func() time.Time { return now },
		telemetry.ModelAccuracyRules(driftMAPE, 24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// The scraper carries the rolling gauges into the history the SLO
	// reads; resolve runs one scrape after each pass.
	scraper := telemetry.NewScraper(reg, db, telemetry.ScrapeOptions{})
	resolve := func() int {
		n := led.ResolveOnce(now)
		scraper.ScrapeOnce(now)
		return n
	}
	rec := loopRecorder{led: led}
	firing := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "model-accuracy-drift", "to": "firing"})
	resolved := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "model-accuracy-drift", "to": "resolved"})

	predictN := func(m *core.TopologyModel, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := sim.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			now = now.Add(time.Minute)
			if _, _, err := m.PredictMeasured(rec, &core.CostSampler{}, nil, rate); err != nil {
				t.Fatal(err)
			}
		}
	}
	mape := func(phase string) float64 {
		t.Helper()
		stats := led.Stats()
		if len(stats) != 1 || stats[0].MAPE == nil {
			t.Fatalf("%s: Stats = %+v", phase, stats)
		}
		return *stats[0].MAPE
	}

	// Phase 1 — healthy: minutes 30–36, no fault yet.
	predictN(tm, 6)
	if n := resolve(); n != 6 {
		t.Fatalf("phase 1 ResolveOnce = %d, want 6", n)
	}
	if m := mape("phase 1"); m >= driftMAPE {
		t.Fatalf("phase 1 MAPE %g already above %g — calibration failed", m, driftMAPE)
	}
	now = now.Add(time.Second) // history ranges are end-exclusive
	if st := alertState(t, slo, "model-accuracy-drift"); st != telemetry.StateOK {
		t.Fatalf("phase 1 drift state = %s, want ok", st)
	}

	// Phase 2 — the slow fault bites at minute 36. Let it dominate the
	// trailing observe window, then audit a rolling window's worth of
	// predictions from the now-stale model.
	if err := sim.Run(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	now = now.Add(6*time.Minute - time.Second)
	predictN(tm, rollingN)
	if n := resolve(); n != rollingN {
		t.Fatalf("phase 2 ResolveOnce = %d, want %d", n, rollingN)
	}
	if m := mape("phase 2"); m <= driftMAPE {
		t.Fatalf("phase 2 MAPE %g did not cross %g during the slow fault", m, driftMAPE)
	}
	now = now.Add(time.Second)
	if st := alertState(t, slo, "model-accuracy-drift"); st != telemetry.StateFiring {
		t.Fatalf("phase 2 drift state = %s, want firing", st)
	}
	if firing.Value() != 1 {
		t.Fatalf("firing transitions = %g, want 1", firing.Value())
	}

	// Phase 3 — the fault cleared at minute 62. Run 15 minutes so the
	// spout backlog built during the fault drains (≈8 min of spare
	// capacity) and the drain windows age out of the observe window,
	// recalibrate on clean post-fault data, and audit fresh predictions.
	if err := sim.Run(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	now = now.Add(15*time.Minute - time.Second)
	models2, _, err := core.CalibrateTopologyFromProviderReport(prov, topo, now.Add(-5*time.Minute), now, core.CalibrationOptions{Warmup: 1})
	if err != nil {
		t.Fatalf("re-calibrate: %v", err)
	}
	tm2, err := core.NewTopologyModel(topo, models2)
	if err != nil {
		t.Fatal(err)
	}
	led.NoteCalibration("word-count", now)
	predictN(tm2, rollingN)
	resolve()
	if m := mape("phase 3"); m >= driftMAPE {
		t.Fatalf("phase 3 MAPE %g still above %g after the fault cleared", m, driftMAPE)
	}
	now = now.Add(time.Second)
	if st := alertState(t, slo, "model-accuracy-drift"); st != telemetry.StateOK {
		t.Fatalf("phase 3 drift state = %s, want ok", st)
	}
	if resolved.Value() != 1 {
		t.Fatalf("resolved transitions = %g, want 1", resolved.Value())
	}
}

// topology2 packs a topology over two containers (test shorthand).
func topology2(topo *topology.Topology) (*topology.PackingPlan, error) {
	return topology.RoundRobinPack(topo, 2)
}

// TestDegradedCalibrationFlagReachesLedger drives the other half of
// the resilience story: a metrics-gap fault starves the requested
// calibration window, calibration widens its lookback and flags
// itself degraded, and the flag travels model → run → audit record.
func TestDegradedCalibrationFlagReachesLedger(t *testing.T) {
	sim, err := heron.NewWordCount(heron.WordCountOptions{RatePerMinute: 8e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	inner, err := metrics.NewTSDBProvider(sim.DB(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Start()
	// The gap swallows minutes [10, 28): the requested window [20, 30)
	// keeps only 2 rollups, under the 3-window minimum.
	plan := &Plan{Faults: []Fault{{Kind: FaultMetricsGap, At: Duration(10 * time.Minute), Duration: Duration(18 * time.Minute)}}}
	fp, err := NewFaultyProvider(inner, plan, ProviderOptions{Origin: start})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := heron.WordCountTopology(8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	models, rep, err := core.CalibrateTopologyFromProviderReport(fp, topo,
		start.Add(20*time.Minute), start.Add(30*time.Minute), core.CalibrationOptions{})
	if err != nil {
		t.Fatalf("calibrate through gap: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("calibration through an 18-minute gap not flagged degraded")
	}
	if rep.Widened <= 0 {
		t.Errorf("Widened = %s, want > 0", rep.Widened)
	}
	tm, err := core.NewTopologyModel(topo, models)
	if err != nil {
		t.Fatal(err)
	}
	tm.Degraded = rep.Degraded

	led, err := audit.NewLedger(audit.Options{Provider: fp, History: tsdb.New(0), Registry: instrument.NewRegistry(),
		Now: time.Now, SeriesNow: time.Now, MetricsWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tm.PredictMeasured(loopRecorder{led: led}, &core.CostSampler{}, nil, 8e6); err != nil {
		t.Fatal(err)
	}
	recs := led.List(audit.Filter{})
	if len(recs) != 1 {
		t.Fatalf("ledger holds %d records, want 1", len(recs))
	}
	if !recs[0].Degraded {
		t.Error("audit record not marked degraded")
	}

	// Control: the same calibration without the gap is clean.
	_, rep2, err := core.CalibrateTopologyFromProviderReport(inner, topo,
		start.Add(20*time.Minute), start.Add(30*time.Minute), core.CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Degraded {
		t.Errorf("gap-free calibration flagged degraded: %+v", rep2)
	}
}
