package audit

import (
	"math"
	"testing"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/heron"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

// The closed-loop accuracy test: a live simulator, a model calibrated
// from it, a ledger auditing every prediction, and the drift SLO on
// top. It asserts the whole chain end to end:
//
//  1. the ledger's rolling MAPE matches an experiment-style replay of
//     the same windows to 1e-9;
//  2. shifting the simulator's splitter→counter α mid-run (the
//     workload drifting away from the calibration) drives the
//     model-accuracy-drift rule to firing;
//  3. re-calibrating against the post-shift data resolves it.

// loopRecorder adapts the ledger to core.RunRecorder the same way the
// API tier's recorder does.
type loopRecorder struct {
	led *Ledger
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
	r.led.Record(Record{
		Topology:      "word-count",
		Model:         "predict",
		SourceRateTPM: run.SourceRate,
		Parallelism:   run.Parallelism,
		Calibration:   run.Calibration,
		Predicted: Predicted{
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

func TestClosedLoopAccuracyDrift(t *testing.T) {
	const (
		rate      = 20e6 // tuples/minute: unsaturated at these parallelisms
		driftMAPE = 0.08
	)

	sim, err := heron.NewWordCount(heron.WordCountOptions{
		SplitterP:     3,
		CounterP:      4,
		RatePerMinute: rate,
	})
	if err != nil {
		t.Fatalf("NewWordCount: %v", err)
	}
	start := sim.Start()
	if err := sim.Run(30 * time.Minute); err != nil {
		t.Fatalf("sim warmup: %v", err)
	}

	prov, err := metrics.NewTSDBProvider(sim.DB(), time.Minute)
	if err != nil {
		t.Fatalf("provider: %v", err)
	}
	top, err := heron.WordCountTopology(8, 3, 4)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	now := start.Add(30 * time.Minute)
	models, _, err := core.CalibrateTopologyFromProviderReport(prov, top, start, now, core.CalibrationOptions{Warmup: 3})
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	tm, err := core.NewTopologyModel(top, models)
	if err != nil {
		t.Fatalf("model: %v", err)
	}

	db := tsdb.New(24 * time.Hour)
	reg := instrument.NewRegistry()
	led := testLedger(t, Options{
		Provider: prov,
		History:  db,
		Registry: reg,
		Now:      func() time.Time { return now },
	})
	led.NoteCalibration("word-count", now)
	slo, err := telemetry.NewSLO(db, reg, func() time.Time { return now },
		telemetry.ModelAccuracyRules(driftMAPE, 24*time.Hour))
	if err != nil {
		t.Fatalf("NewSLO: %v", err)
	}
	// The scraper is what carries the rolling gauges into the history
	// the SLO reads; resolve runs one scrape after each pass.
	scraper := telemetry.NewScraper(reg, db, telemetry.ScrapeOptions{})
	resolve := func() int {
		n := led.ResolveOnce(now)
		scraper.ScrapeOnce(now)
		return n
	}
	rec := loopRecorder{led: led}
	firing := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "model-accuracy-drift", "to": "firing"})
	resolved := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "model-accuracy-drift", "to": "resolved"})

	// predictN advances the sim/ledger clock minute by minute, auditing
	// one prediction of the deployed configuration per minute, and
	// returns the predicted sink throughputs in creation order.
	predictN := func(m *core.TopologyModel, n int) []float64 {
		t.Helper()
		preds := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			if err := sim.Run(time.Minute); err != nil {
				t.Fatalf("sim.Run: %v", err)
			}
			now = now.Add(time.Minute)
			pred, _, err := m.PredictMeasured(rec, &core.CostSampler{}, nil, rate)
			if err != nil {
				t.Fatalf("PredictMeasured: %v", err)
			}
			preds = append(preds, pred.SinkThroughput)
		}
		return preds
	}

	// expectedMAPE replays the resolver's join the way an offline
	// experiment would: summarise the sink's trailing windows at each
	// record's creation time and average the relative errors oldest
	// first, over the last rollingWindow audited records.
	var createdAts []time.Time
	var predSinks []float64
	expectedMAPE := func() float64 {
		t.Helper()
		lo := 0
		if len(predSinks) > rollingWindow {
			lo = len(predSinks) - rollingWindow
		}
		apes := make([]float64, 0, rollingWindow)
		for i := lo; i < len(predSinks); i++ {
			ws, err := prov.ComponentWindows("word-count", "counter", createdAts[i].Add(-observeWindow), createdAts[i])
			if err != nil {
				t.Fatalf("replay ComponentWindows: %v", err)
			}
			ss, err := metrics.Summarise(ws, 0)
			if err != nil {
				t.Fatalf("replay Summarise: %v", err)
			}
			// 1-minute rollup windows: per-window counts are per-minute.
			apes = append(apes, relErr(predSinks[i], ss.Execute))
		}
		return mean(apes)
	}
	// Phase 1 — healthy loop: the calibrated model predicts the live
	// topology; rolling MAPE is small and matches the replay exactly.
	preds := predictN(tm, 6)
	for i, p := range preds {
		createdAts = append(createdAts, now.Add(time.Duration(i-len(preds)+1)*time.Minute))
		predSinks = append(predSinks, p)
	}
	if n := resolve(); n != 6 {
		t.Fatalf("phase 1 ResolveOnce = %d, want 6", n)
	}
	stats := led.Stats()
	if len(stats) != 1 || stats[0].MAPE == nil {
		t.Fatalf("phase 1 Stats = %+v", stats)
	}
	want := expectedMAPE()
	if diff := math.Abs(*stats[0].MAPE - want); diff > 1e-9 {
		t.Fatalf("phase 1 rolling MAPE %g vs replayed %g (diff %g > 1e-9)", *stats[0].MAPE, want, diff)
	}
	if *stats[0].MAPE >= driftMAPE {
		t.Fatalf("phase 1 MAPE %g already above drift threshold %g — calibration failed", *stats[0].MAPE, driftMAPE)
	}
	if pt, err := db.Latest(MetricMAPE, tsdb.Labels{"topology": "word-count", "model": "predict"}); err != nil || math.Abs(pt.V-want) > 1e-9 {
		t.Fatalf("%s latest = %+v, %v, want %g", MetricMAPE, pt, err, want)
	}
	// Unsaturated everywhere: every graded run is a true negative, so
	// the classifier is vacuously perfect.
	if stats[0].TN != 6 || stats[0].Precision != 1 || stats[0].Recall != 1 {
		t.Fatalf("phase 1 classifier stats = %+v", stats[0])
	}
	now = now.Add(time.Second) // history ranges are end-exclusive
	if state := alertState(t, slo, "model-accuracy-drift"); state != telemetry.StateOK {
		t.Fatalf("phase 1 drift state = %s, want ok", state)
	}

	// Phase 2 — workload shift: sentences get longer (α 7.635 → 10).
	// The stale calibration now under-predicts sink throughput by
	// ≈ 24%, far past the 8% budget.
	if err := sim.SetRouteAlpha("splitter", "counter", 10); err != nil {
		t.Fatalf("SetRouteAlpha: %v", err)
	}
	if err := sim.Run(6 * time.Minute); err != nil { // flush pre-shift windows out of the observe window
		t.Fatalf("sim.Run: %v", err)
	}
	now = now.Add(6 * time.Minute)
	mutEnd := now
	preds = predictN(tm, rollingWindow) // fills the whole rolling window with drifted runs
	for i, p := range preds {
		createdAts = append(createdAts, now.Add(time.Duration(i-len(preds)+1)*time.Minute))
		predSinks = append(predSinks, p)
	}
	if n := resolve(); n != rollingWindow {
		t.Fatalf("phase 2 ResolveOnce = %d, want %d", n, rollingWindow)
	}
	stats = led.Stats()
	want = expectedMAPE()
	if diff := math.Abs(*stats[0].MAPE - want); diff > 1e-9 {
		t.Fatalf("phase 2 rolling MAPE %g vs replayed %g (diff %g > 1e-9)", *stats[0].MAPE, want, diff)
	}
	if *stats[0].MAPE <= driftMAPE {
		t.Fatalf("phase 2 MAPE %g did not cross drift threshold %g after α shift", *stats[0].MAPE, driftMAPE)
	}
	now = now.Add(time.Second)
	if state := alertState(t, slo, "model-accuracy-drift"); state != telemetry.StateFiring {
		t.Fatalf("phase 2 drift state = %s, want firing", state)
	}
	if firing.Value() != 1 {
		t.Fatalf("firing transitions = %g, want 1", firing.Value())
	}

	// Phase 3 — re-calibrate against the post-shift behaviour; fresh
	// predictions push the drifted runs out of the rolling window and
	// the alert resolves.
	models2, _, err := core.CalibrateTopologyFromProviderReport(prov, top, mutEnd.Add(-5*time.Minute), mutEnd, core.CalibrationOptions{Warmup: 1})
	if err != nil {
		t.Fatalf("re-calibrate: %v", err)
	}
	tm2, err := core.NewTopologyModel(top, models2)
	if err != nil {
		t.Fatalf("re-model: %v", err)
	}
	led.NoteCalibration("word-count", now)
	preds = predictN(tm2, rollingWindow)
	for i, p := range preds {
		createdAts = append(createdAts, now.Add(time.Duration(i-len(preds)+1)*time.Minute))
		predSinks = append(predSinks, p)
	}
	resolve()
	stats = led.Stats()
	want = expectedMAPE()
	if diff := math.Abs(*stats[0].MAPE - want); diff > 1e-9 {
		t.Fatalf("phase 3 rolling MAPE %g vs replayed %g (diff %g > 1e-9)", *stats[0].MAPE, want, diff)
	}
	if *stats[0].MAPE >= driftMAPE {
		t.Fatalf("phase 3 MAPE %g still above drift threshold %g after re-calibration", *stats[0].MAPE, driftMAPE)
	}
	now = now.Add(time.Second)
	if state := alertState(t, slo, "model-accuracy-drift"); state != telemetry.StateOK {
		t.Fatalf("phase 3 drift state = %s, want ok", state)
	}
	if resolved.Value() != 1 {
		t.Fatalf("resolved transitions = %g, want 1", resolved.Value())
	}
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
