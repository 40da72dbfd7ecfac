package core

import (
	"math"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/topology"
	"caladrius/internal/workload"
)

// diamondTopology builds a two-branch topology: the spout replicates
// tuples onto a heavy branch (α=2, slow) and a light branch (α=0.5,
// fast), both feeding a join sink. The heavy branch is the critical
// path. §IV-B3 says multiple sub-critical path candidates should be
// modelled simultaneously; this validates that end to end.
func diamondTopology(t *testing.T, heavyP, lightP int) *topology.Topology {
	t.Helper()
	top, err := topology.NewBuilder("diamond").
		AddSpout("src", 4).
		AddBolt("heavy", heavyP).
		AddBolt("light", lightP).
		AddBolt("join", 4).
		ConnectStream("to-heavy", "src", "heavy", topology.ShuffleGrouping).
		ConnectStream("to-light", "src", "light", topology.ShuffleGrouping).
		Connect("heavy", "join", topology.ShuffleGrouping).
		Connect("light", "join", topology.ShuffleGrouping).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func diamondProfiles() map[string]heron.ComponentProfile {
	return map[string]heron.ComponentProfile{
		"src": {
			ServiceRate:   2e6,
			BytesPerTuple: 200,
			CPUPerTuple:   1e-7,
			Emits: map[string]heron.EmitProfile{
				"to-heavy": {Alpha: 1},
				"to-light": {Alpha: 1},
			},
		},
		"heavy": {
			ServiceRate:   50_000, // SP = 3 M/min per instance
			BytesPerTuple: 200,
			CPUPerTuple:   1e-5,
			Emits:         map[string]heron.EmitProfile{"default": {Alpha: 2}},
		},
		"light": {
			ServiceRate:   200_000, // SP = 12 M/min per instance
			BytesPerTuple: 200,
			CPUPerTuple:   2e-6,
			Emits:         map[string]heron.EmitProfile{"default": {Alpha: 0.5}},
		},
		"join": {
			ServiceRate:   2e6,
			BytesPerTuple: 100,
			CPUPerTuple:   2e-7,
		},
	}
}

func runDiamond(t *testing.T, heavyP, lightP int, ratePerMin float64, minutes int) (*heron.Simulation, *metrics.TSDBProvider) {
	t.Helper()
	return runDiamondWith(t, diamondProfiles(), heavyP, lightP, ratePerMin, minutes)
}

func runDiamondWith(t *testing.T, profiles map[string]heron.ComponentProfile, heavyP, lightP int, ratePerMin float64, minutes int) (*heron.Simulation, *metrics.TSDBProvider) {
	t.Helper()
	sim, err := heron.New(heron.Config{
		Topology:   diamondTopology(t, heavyP, lightP),
		Profiles:   profiles,
		SpoutRates: map[string]workload.RateSchedule{"src": workload.ConstantRate(ratePerMin / 60)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Duration(minutes) * time.Minute); err != nil {
		t.Fatal(err)
	}
	prov, err := metrics.NewTSDBProvider(sim.DB(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return sim, prov
}

func componentSteady(t *testing.T, prov *metrics.TSDBProvider, sim *heron.Simulation, comp string, warmup, minutes int) metrics.SteadyState {
	t.Helper()
	ws, err := prov.ComponentWindows("diamond", comp, sim.Start(), sim.Start().Add(time.Duration(minutes)*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := metrics.Summarise(ws, warmup)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestDiamondCriticalPathIdentification calibrates the diamond from
// simulator runs and checks the model identifies the heavy branch as
// the critical path, matching where the simulator actually saturates.
func TestDiamondCriticalPathIdentification(t *testing.T) {
	// Calibration: a linear run and a heavy-saturated run.
	models := map[string]*ComponentModel{}
	top := diamondTopology(t, 2, 2)
	for _, rate := range []float64{3e6, 9e6} { // heavy p=2 saturates at 6 M/min
		sim, prov := runDiamond(t, 2, 2, rate, 12)
		run, _, err := CalibrateTopologyFromProviderReport(prov, top, sim.Start(), sim.Start().Add(12*time.Minute), CalibrationOptions{Warmup: 4})
		if err != nil {
			t.Fatal(err)
		}
		for comp, m := range run {
			if prev, ok := models[comp]; ok {
				if m, err = MergeCalibrations(prev, m); err != nil {
					t.Fatal(err)
				}
			}
			models[comp] = m
		}
	}
	// Light-bottleneck profiling run: widen the heavy branch (p=12 →
	// 36 M capacity) so the light branch (p=2 → 24 M) saturates first,
	// pinning its SP. Only the light model transfers (same
	// parallelism); heavy was calibrated at a different p in this run.
	{
		sim, prov := runDiamond(t, 12, 2, 30e6, 12)
		wide := diamondTopology(t, 12, 2)
		run, _, err := CalibrateTopologyFromProviderReport(prov, wide, sim.Start(), sim.Start().Add(12*time.Minute), CalibrationOptions{Warmup: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !run["light"].Instance.SaturatedObservable() {
			t.Fatal("light did not saturate in its profiling run")
		}
		merged, err := MergeCalibrations(models["light"], run["light"])
		if err != nil {
			t.Fatal(err)
		}
		models["light"] = merged
	}

	// The spout replicates onto two streams, so its summed α is 2.
	if math.Abs(models["src"].Instance.Alpha-2) > 0.02 {
		t.Errorf("src alpha = %.3f, want 2 (two replicated streams)", models["src"].Instance.Alpha)
	}
	if math.Abs(models["heavy"].Instance.Alpha-2) > 0.02 {
		t.Errorf("heavy alpha = %.3f", models["heavy"].Instance.Alpha)
	}
	if math.Abs(models["light"].Instance.Alpha-0.5) > 0.02 {
		t.Errorf("light alpha = %.3f", models["light"].Instance.Alpha)
	}

	tm, err := NewTopologyModel(top, models)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := tm.Predict(nil, 9e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(pred.Paths))
	}
	if pred.Bottleneck != "heavy" {
		t.Errorf("bottleneck = %q, want heavy", pred.Bottleneck)
	}
	if e := math.Abs(pred.SaturationSource-6e6) / 6e6; e > 0.05 {
		t.Errorf("t'0 = %.4g, want ≈6e6 (err %.1f%%)", pred.SaturationSource, 100*e)
	}
	if pred.Risk != RiskHigh {
		t.Errorf("risk at 9M = %v", pred.Risk)
	}

	// Scaling the heavy branch moves the critical path to the light
	// branch (light p=2 saturates at 24 M).
	scaled, err := tm.Predict(map[string]int{"heavy": 10}, 9e6)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Bottleneck != "light" {
		t.Errorf("scaled bottleneck = %q, want light (t'0 %.3g)", scaled.Bottleneck, scaled.SaturationSource)
	}
}

// TestDiamondGlobalBackpressureThrottlesBothBranches validates
// Predict's evaluation at min(t₀, t′₀): above the heavy branch's
// saturation, the simulator throttles the light branch too (spouts are
// shared), and the model's effective-rate evaluation matches.
func TestDiamondGlobalBackpressureThrottlesBothBranches(t *testing.T) {
	models := map[string]*ComponentModel{}
	top := diamondTopology(t, 2, 2)
	for _, rate := range []float64{3e6, 9e6} {
		sim, prov := runDiamond(t, 2, 2, rate, 12)
		run, _, err := CalibrateTopologyFromProviderReport(prov, top, sim.Start(), sim.Start().Add(12*time.Minute), CalibrationOptions{Warmup: 4})
		if err != nil {
			t.Fatal(err)
		}
		for comp, m := range run {
			if prev, ok := models[comp]; ok {
				if m, err = MergeCalibrations(prev, m); err != nil {
					t.Fatal(err)
				}
			}
			models[comp] = m
		}
	}
	tm, err := NewTopologyModel(top, models)
	if err != nil {
		t.Fatal(err)
	}
	// Deploy above saturation and compare per-branch throughputs.
	const rate = 10e6
	sim, prov := runDiamond(t, 2, 2, rate, 12)
	pred, err := tm.Predict(nil, rate)
	if err != nil {
		t.Fatal(err)
	}
	byFirstBolt := map[string]PathPrediction{}
	for _, pp := range pred.Paths {
		byFirstBolt[pp.Path[1]] = pp
	}
	for _, branch := range []string{"heavy", "light"} {
		ss := componentSteady(t, prov, sim, branch, 4, 12)
		predIn := byFirstBolt[branch].Components[1].InputRate
		if e := math.Abs(predIn-ss.Execute) / ss.Execute; e > 0.05 {
			t.Errorf("%s input: predicted %.4g measured %.4g (err %.1f%%)", branch, predIn, ss.Execute, 100*e)
		}
	}
	// The light branch is throttled well below the offered rate even
	// though it has spare capacity — the whole point of global BP.
	light := componentSteady(t, prov, sim, "light", 4, 12)
	if light.Execute > 0.75*rate {
		t.Errorf("light branch executes %.4g at offered %.4g; should be throttled to ≈6e6", light.Execute, rate)
	}
	// The join's row totals heavy output + light output, and both
	// paths carry that one row.
	join := componentSteady(t, prov, sim, "join", 4, 12)
	predJoin := byFirstBolt["heavy"].Components[2].InputRate
	if other := byFirstBolt["light"].Components[2].InputRate; other != predJoin {
		t.Errorf("join input: %.4g on the heavy path, %.4g on the light one", predJoin, other)
	}
	if e := math.Abs(predJoin-join.Execute) / join.Execute; e > 0.05 {
		t.Errorf("join input: predicted %.4g measured %.4g (err %.1f%%)", predJoin, join.Execute, 100*e)
	}
}

// TestDiamondFanInSaturatesOnTheSum: the join merges both branches, so
// it saturates when their outputs together reach its capacity. Heavy
// (p=12, 36 M/min) and light (p=4, 48 M/min) are wide; the join (p=4,
// SP 10 M/min an instance) takes 2·t₀ + 0.5·t₀ of its 40 M/min and
// binds at t₀ = 16 M/min, where one branch at a time would put it at
// 20 M. The models hold the simulator's own figures, so the model and
// a noiseless run agree.
func TestDiamondFanInSaturatesOnTheSum(t *testing.T) {
	profiles := diamondProfiles()
	join := profiles["join"]
	join.ServiceRate = 1e7 / 60
	profiles["join"] = join
	models := map[string]*ComponentModel{
		"src": {Component: "src", Parallelism: 4, Instance: InstanceModel{Alpha: 2, SP: math.Inf(1)},
			StreamAlphas: map[string]float64{StreamAlphaKey("to-heavy", "heavy"): 1, StreamAlphaKey("to-light", "light"): 1}},
		"heavy": {Component: "heavy", Parallelism: 12, Instance: InstanceModel{Alpha: 2, SP: 3e6}},
		"light": {Component: "light", Parallelism: 4, Instance: InstanceModel{Alpha: 0.5, SP: 12e6}},
		"join":  {Component: "join", Parallelism: 4, Instance: InstanceModel{Alpha: 0, SP: 1e7}},
	}
	tm, err := NewTopologyModel(diamondTopology(t, 12, 4), models)
	if err != nil {
		t.Fatal(err)
	}
	const rate = 18e6
	pred, err := tm.Predict(nil, rate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.SaturationSource-16e6) > 1e-9 || pred.Bottleneck != "join" || pred.Risk != RiskHigh {
		t.Errorf("t'0 %.10g at %q, risk %v; want 16e6 at join, high", pred.SaturationSource, pred.Bottleneck, pred.Risk)
	}
	sim, prov := runDiamondWith(t, profiles, 12, 4, rate, 12)
	for _, pp := range pred.Paths {
		row := pp.Components[2]
		if math.Abs(row.InputRate-40e6) > 1e-9 || !row.Saturated || pp.Bottleneck != "join" {
			t.Errorf("%v: join in %.10g saturated %v, bottleneck %q; want 40e6, true, join", pp.Path, row.InputRate, row.Saturated, pp.Bottleneck)
		}
		// The deployment pins the join at its 40 M/min and throttles
		// both branches to about 16 M/min; under backpressure they
		// take turns, so a branch is within 1 %, not exact.
		for _, c := range pp.Components[1:] {
			tol := 0.01
			if c.Component == "join" {
				tol = 1e-9
			}
			measured := componentSteady(t, prov, sim, c.Component, 4, 12).Execute
			if math.Abs(c.InputRate-measured) > tol*measured {
				t.Errorf("%v: %s in %.10g, simulator %.10g", pp.Path, c.Component, c.InputRate, measured)
			}
		}
	}
}
