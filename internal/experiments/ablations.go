package experiments

import (
	"fmt"
	"math"

	"caladrius/internal/core"
	"caladrius/internal/graph"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/topology"
	"caladrius/internal/workload"
)

// ablationWatermarkGap studies the design assumption behind §IV-B1's
// bimodality claim: the high/low watermark hysteresis. With Heron's
// default 100/50 MB gap, the backpressure-time metric is bimodal
// (≈0 or ≈60 000 ms/min). Shrinking the gap leaves the bimodality
// intact (the spout's burst-resume keeps the duty cycle near 1), while
// widening the drain window lengthens each cycle without changing the
// per-minute average — evidence the model's binary backpressure
// approximation is robust to the watermark configuration. Word-count's
// options do not reach the watermarks, so each run assembles its own
// heron.Config and deploys it through metrics.Deploy.
func ablationWatermarkGap(sweep SweepOptions) ([]Table, error) {
	t := Table{
		Title:   "Backpressure bimodality vs watermark configuration (ablation of §IV-B1's assumption)",
		Columns: []string{"high_MB", "low_MB", "bp_below_sp_ms", "bp_above_sp_ms"},
	}
	configs := []struct{ high, low float64 }{
		{100e6, 50e6}, // Heron default
		{20e6, 10e6},  // tight
		{200e6, 20e6}, // wide drain window
		{60e6, 55e6},  // minimal hysteresis
	}
	top, err := heron.WordCountTopology(8, 1, 3)
	if err != nil {
		return nil, err
	}
	run := func(high, low, rate float64) (float64, error) {
		sim, err := heron.New(heron.Config{
			Topology:           top,
			Profiles:           heron.WordCountProfiles(heron.UniformKeys{}),
			SpoutRates:         map[string]workload.RateSchedule{"spout": workload.ConstantRate(rate / 60)},
			HighWatermarkBytes: high,
			LowWatermarkBytes:  low,
			Tick:               sweep.Tick,
		})
		if err != nil {
			return 0, err
		}
		d, err := metrics.Deploy(sim, sweep.WarmupMinutes, sweep.MeasureMinutes)
		if err != nil {
			return 0, err
		}
		return d.BackpressureMs()
	}
	// One task per (config, below/above-SP rate) pair; the shared
	// topology is immutable and every task builds its own simulation.
	vals, err := RunPoints(sweep, len(configs)*2, func(i int) (float64, error) {
		cfg := configs[i/2]
		rate := 8e6 // below SP (10.8M)
		if i%2 == 1 {
			rate = 15e6 // above SP
		}
		return run(cfg.high, cfg.low, rate)
	})
	if err != nil {
		return nil, err
	}
	bimodalEverywhere := true
	for ci, cfg := range configs {
		below, above := vals[2*ci], vals[2*ci+1]
		t.Rows = append(t.Rows, []float64{cfg.high / 1e6, cfg.low / 1e6, below, above})
		if below > 1000 || above < 45_000 {
			bimodalEverywhere = false
		}
	}
	if bimodalEverywhere {
		t.Findings = append(t.Findings, "bimodality (≈0 below SP, ≳45 s above) holds across all watermark configurations")
	} else {
		t.Findings = append(t.Findings, "WARNING: some watermark configuration broke the bimodality assumption")
	}
	return []Table{t}, nil
}

// ablationCalibrationAttribution quantifies the value of topology-aware
// bottleneck attribution: calibrating from a counter-bottleneck run,
// the naive per-component calibration assigns the splitter a spurious
// saturation point (the upstream queues trip during the spouts'
// burst-resume cycles), which corrupts capacity planning; the
// topology-aware calibration does not.
func ablationCalibrationAttribution(sweep SweepOptions) ([]Table, error) {
	t := Table{
		Title:   "Naive vs topology-aware calibration on a counter-bottleneck run",
		Columns: []string{"naive_splitter_sp_Mtpm", "aware_splitter_sp_is_inf", "true_sp_Mtpm"},
	}
	d, err := metrics.DeployWordCount(heron.WordCountOptions{SplitterP: 6, CounterP: 3, RatePerMinute: 35e6, Tick: sweep.Tick}, sweep.WarmupMinutes, sweep.MeasureMinutes)
	if err != nil {
		return nil, err
	}
	opts := core.CalibrationOptions{Warmup: d.Warmup}
	// The naive baseline trusts the splitter's own backpressure metric:
	// CalibrateComponent over its component and instance windows alone.
	splitter := d.Topology.Component("splitter")
	comp, err := d.Provider.ComponentWindows(d.Topology.Name(), splitter.Name, d.Start, d.AsOf)
	if err != nil {
		return nil, err
	}
	inst := make([][]metrics.Window, splitter.Parallelism)
	for i := range inst {
		if inst[i], err = d.Provider.InstanceWindows(d.Topology.Name(), splitter.Name, i, d.Start, d.AsOf); err != nil {
			return nil, err
		}
	}
	naive, err := core.CalibrateComponent(splitter.Name, splitter.Parallelism, comp, inst, opts)
	if err != nil {
		return nil, err
	}
	aware, _, err := core.CalibrateTopologyFromProviderReport(d.Provider, d.Topology, d.Start, d.AsOf, opts)
	if err != nil {
		return nil, err
	}
	awareInf := 0.0
	if !aware["splitter"].Instance.SaturatedObservable() {
		awareInf = 1
	}
	trueSP := float64(heron.SplitterServiceRate) * 60
	naiveSP := naive.Instance.SP
	t.Rows = append(t.Rows, []float64{naiveSP / 1e6, awareInf, trueSP / 1e6})
	if math.IsInf(naiveSP, 1) {
		return nil, fmt.Errorf("ablation: naive calibration unexpectedly clean")
	}
	under := 100 * (1 - naiveSP/trueSP)
	t.Findings = append(t.Findings,
		fmt.Sprintf("naive calibration under-estimates the splitter SP by %.0f%% (%.1f vs %.1f M/min)", under, naiveSP/1e6, trueSP/1e6),
		"topology-aware calibration correctly leaves the non-bottleneck SP unknown",
	)
	if awareInf != 1 {
		return nil, fmt.Errorf("ablation: topology-aware calibration also fooled")
	}
	return []Table{t}, nil
}

// ablationNoiseVsError sweeps the per-deployment capacity variation and
// records the resulting saturation-throughput prediction error,
// locating the paper's observed 2.5–4.8% errors on the noise axis.
func ablationNoiseVsError(sweep SweepOptions) ([]Table, error) {
	t := Table{
		Title:   "ST prediction error vs per-deployment capacity variation",
		Columns: []string{"noise_std_pct", "p2_st_error_pct", "p4_st_error_pct"},
	}
	// Each noise level is an independent calibrate-and-validate chain;
	// fan the levels out, and let the nested calibration/measure calls
	// share the pool settings.
	sigmas := []float64{0.005, 0.015, 0.03, 0.06}
	rows, err := RunPoints(sweep, len(sigmas), func(i int) ([]float64, error) {
		s := sweep
		s.NoiseStd = sigmas[i]
		models, err := calibrateSplitter(3, 8, 20e6, 48e6, s)
		if err != nil {
			return nil, err
		}
		splitter := models["splitter"]
		row := []float64{100 * sigmas[i]}
		for _, p := range []int{2, 4} {
			rate := splitter.SaturationSource(p) * 1.5
			m, err := measureCI(heron.WordCountOptions{SplitterP: p, CounterP: 8, RatePerMinute: rate}, s, "splitter")
			if err != nil {
				return nil, err
			}
			row = append(row, 100*relErr(splitter.MaxOutput(p), m.Emit))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	first, last := t.Rows[0], t.Rows[len(t.Rows)-1]
	t.Findings = append(t.Findings,
		fmt.Sprintf("error grows with deployment variation: %.1f%%/%.1f%% at σ=%.1f%% → %.1f%%/%.1f%% at σ=%.0f%%",
			first[1], first[2], first[0], last[1], last[2], last[0]),
		"the paper's 2.5–4.8% errors correspond to σ ≈ 1–3%, a plausible shared-cluster variation",
	)
	return []Table{t}, nil
}

// ablationSchedulerPlans compares packing plans (round-robin vs
// first-fit-decreasing) on container count and cross-container traffic
// fraction — the scheduler-selection use case, as a reproducible table.
// It simulates no deployment, so the sweep does not shape it.
func ablationSchedulerPlans(SweepOptions) ([]Table, error) {
	t := Table{
		Title:   "Packing plan comparison: round-robin vs first-fit-decreasing",
		Columns: []string{"is_ffd", "containers", "worst_remote_fraction_pct"},
	}
	top, err := heron.WordCountTopology(8, 4, 5)
	if err != nil {
		return nil, err
	}
	rr, err := topology.RoundRobinPack(top, 4)
	if err != nil {
		return nil, err
	}
	ffd, err := topology.FirstFitDecreasingPack(top, 6, 12*1024)
	if err != nil {
		return nil, err
	}
	for i, plan := range []*topology.PackingPlan{rr, ffd} {
		worst := 0.0
		for _, f := range graph.RemoteTransferFraction(top, plan) {
			if f > worst {
				worst = f
			}
		}
		t.Rows = append(t.Rows, []float64{float64(i), float64(len(plan.Containers)), 100 * worst})
	}
	t.Findings = append(t.Findings,
		fmt.Sprintf("FFD packs into %d containers vs round-robin's %d; locality trade-off visible in the remote fractions",
			len(ffd.Containers), len(rr.Containers)),
	)
	return []Table{t}, nil
}
