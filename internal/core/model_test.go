package core

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"caladrius/internal/metrics"
	"caladrius/internal/topology"
)

func almost(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

func TestInstanceModelEquations(t *testing.T) {
	m := InstanceModel{Alpha: 7.6, SP: 11e6}
	if got := m.ST(); got != 7.6*11e6 {
		t.Errorf("ST = %g", got)
	}
	// Eq. 2 linear region.
	if got := m.Output(5e6); got != 7.6*5e6 {
		t.Errorf("linear output = %g", got)
	}
	// Eq. 2 saturated region.
	if got := m.Output(20e6); got != m.ST() {
		t.Errorf("saturated output = %g", got)
	}
	if got := m.Input(20e6); got != 11e6 {
		t.Errorf("saturated input = %g", got)
	}
	if got := m.Input(5e6); got != 5e6 {
		t.Errorf("linear input = %g", got)
	}
	if !m.Saturated(11e6) || m.Saturated(10.9e6) {
		t.Error("saturation predicate wrong")
	}
}

func TestInstanceModelMultiInput(t *testing.T) {
	// Eq. 3: each stream clamped independently, total clamped at ST.
	m := InstanceModel{Alpha: 2, SP: 100}
	if got := m.OutputMulti([]float64{30, 40}); got != 140 {
		t.Errorf("multi linear = %g", got)
	}
	if got := m.OutputMulti([]float64{90, 150}); got != 200 { // 180 + clamp(300→200) = 380 → clamp 200
		t.Errorf("multi saturated = %g", got)
	}
}

func TestInstanceModelInverse(t *testing.T) {
	m := InstanceModel{Alpha: 4, SP: 100}
	if got := m.Inverse(200); got != 50 {
		t.Errorf("inverse linear = %g", got)
	}
	if got := m.Inverse(400); got != 100 { // exactly ST → SP
		t.Errorf("inverse at ST = %g", got)
	}
	if got := m.Inverse(1000); got != 100 {
		t.Errorf("inverse above ST = %g", got)
	}
	// Round trip in the linear region.
	f := func(rate float64) bool {
		rate = math.Abs(math.Mod(rate, 99))
		return almost(m.Inverse(m.Output(rate)), rate, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Unsaturable instance.
	inf := InstanceModel{Alpha: 2, SP: math.Inf(1)}
	if got := inf.Output(1e12); got != 2e12 {
		t.Errorf("unsaturable output = %g", got)
	}
	if !math.IsInf(inf.ST(), 1) {
		t.Error("unsaturable ST should be +Inf")
	}
	zero := InstanceModel{Alpha: 0, SP: 100}
	if !math.IsInf(zero.Inverse(10), 1) {
		t.Error("zero-alpha inverse should be +Inf")
	}
}

func TestComponentModelShuffleScaling(t *testing.T) {
	// Eq. 9: T_c(p, t) = p·T_i(t/p).
	c := &ComponentModel{Component: "splitter", Parallelism: 3, Instance: InstanceModel{Alpha: 7.6, SP: 10e6}}
	// Linear region: output independent of p.
	if got := c.Output(3, 15e6); !almost(got, 7.6*15e6, 1e-12) {
		t.Errorf("p=3 linear = %g", got)
	}
	if got := c.Output(2, 15e6); !almost(got, 7.6*15e6, 1e-12) {
		t.Errorf("p=2 linear = %g", got)
	}
	// Saturation scales with γ = p′/p.
	if got := c.MaxOutput(3); !almost(got, 3*7.6*10e6, 1e-12) {
		t.Errorf("p=3 max = %g", got)
	}
	if got := c.MaxOutput(4); !almost(got, 4*7.6*10e6, 1e-12) {
		t.Errorf("p=4 max = %g", got)
	}
	if got := c.SaturationSource(2); !almost(got, 20e6, 1e-12) {
		t.Errorf("p=2 saturation source = %g", got)
	}
	// Deep saturation: output pinned at p·ST.
	if got := c.Output(2, 100e6); !almost(got, 2*7.6*10e6, 1e-12) {
		t.Errorf("p=2 saturated = %g", got)
	}
	if got := c.Input(2, 100e6); !almost(got, 20e6, 1e-12) {
		t.Errorf("p=2 saturated input = %g", got)
	}
	if c.Output(0, 10) != 0 {
		t.Error("p=0 output should be 0")
	}
}

func TestComponentModelBiasedShares(t *testing.T) {
	// Fields grouping with a 60/40 bias at the calibrated parallelism.
	c := &ComponentModel{
		Component:   "counter",
		Parallelism: 2,
		Instance:    InstanceModel{Alpha: 1, SP: 100},
		InputShares: []float64{0.6, 0.4},
	}
	// The hot instance saturates at component source 100/0.6 ≈ 166.7
	// (Eq. 11's clamping), earlier than the uniform 200.
	if got := c.SaturationSource(2); !almost(got, 100/0.6, 1e-9) {
		t.Errorf("biased saturation source = %g", got)
	}
	// Below that, linear.
	if got := c.Output(2, 150); !almost(got, 150, 1e-12) {
		t.Errorf("biased linear output = %g", got)
	}
	// Above the biased saturation source, global backpressure clamps
	// the whole component at SP/maxShare (not the per-instance clamped
	// sum — see the Input doc comment).
	if got := c.Output(2, 200); !almost(got, 100/0.6, 1e-9) {
		t.Errorf("saturated biased output = %g, want %g", got, 100/0.6)
	}
	if got := c.MaxOutput(2); !almost(got, 100/0.6, 1e-9) {
		t.Errorf("biased max output = %g", got)
	}
	// At a different parallelism shares revert to uniform (Eq. 9).
	if got := c.SaturationSource(4); !almost(got, 400, 1e-12) {
		t.Errorf("re-parallelised saturation source = %g", got)
	}
}

func TestComponentModelInverse(t *testing.T) {
	c := &ComponentModel{Component: "x", Parallelism: 2, Instance: InstanceModel{Alpha: 3, SP: 50}}
	if got := c.InverseOutput(2, 150); !almost(got, 50, 1e-12) {
		t.Errorf("inverse linear = %g", got)
	}
	if got := c.InverseOutput(2, 300); !almost(got, 100, 1e-12) { // at max 2·150
		t.Errorf("inverse at max = %g", got)
	}
	if got := c.InverseOutput(2, 9999); !almost(got, 100, 1e-12) {
		t.Errorf("inverse above max = %g", got)
	}
}

func TestComponentModelCPU(t *testing.T) {
	c := &ComponentModel{Component: "x", Parallelism: 2, Instance: InstanceModel{Alpha: 1, SP: 100}, CPUPsi: 0.01}
	got, err := c.CPU(2, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 1.5, 1e-12) {
		t.Errorf("cpu = %g", got)
	}
	// Saturated input clamps CPU too.
	got, err = c.CPU(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 2.0, 1e-12) {
		t.Errorf("saturated cpu = %g", got)
	}
	nocpu := &ComponentModel{Component: "x", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: 100}}
	if _, err := nocpu.CPU(1, 10); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("uncalibrated cpu: %v", err)
	}
}

func TestComponentModelValidate(t *testing.T) {
	good := ComponentModel{Component: "c", Parallelism: 2, Instance: InstanceModel{Alpha: 1, SP: 10}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	cases := []ComponentModel{
		{Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: 1}},                                                    // no name
		{Component: "c", Parallelism: 0, Instance: InstanceModel{Alpha: 1, SP: 1}},                                    // bad p
		{Component: "c", Parallelism: 1, Instance: InstanceModel{Alpha: -1, SP: 1}},                                   // bad alpha
		{Component: "c", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: 0}},                                    // bad SP
		{Component: "c", Parallelism: 2, Instance: InstanceModel{Alpha: 1, SP: 1}, InputShares: []float64{1}},         // share len
		{Component: "c", Parallelism: 2, Instance: InstanceModel{Alpha: 1, SP: 1}, InputShares: []float64{0.9, 0.9}},  // share sum
		{Component: "c", Parallelism: 2, Instance: InstanceModel{Alpha: 1, SP: 1}, InputShares: []float64{1.5, -0.5}}, // negative
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestQuickComponentOutputMonotoneAndBounded(t *testing.T) {
	c := &ComponentModel{Component: "c", Parallelism: 3, Instance: InstanceModel{Alpha: 5, SP: 1e6}}
	f := func(r1, r2 float64, pRaw uint8) bool {
		p := 1 + int(pRaw%8)
		r1, r2 = math.Abs(math.Mod(r1, 1e8)), math.Abs(math.Mod(r2, 1e8))
		lo, hi := math.Min(r1, r2), math.Max(r1, r2)
		oLo, oHi := c.Output(p, lo), c.Output(p, hi)
		if oLo > oHi+1e-9 {
			return false // monotone
		}
		return oHi <= c.MaxOutput(p)+1e-9 // bounded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// --- calibration tests -------------------------------------------------

func synthWindows(n int, executePerMin, alpha float64, saturated bool, psi float64) []metrics.Window {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	out := make([]metrics.Window, n)
	for i := range out {
		w := metrics.Window{
			T:       base.Add(time.Duration(i) * time.Minute),
			Execute: executePerMin,
			Emit:    executePerMin * alpha,
			Arrival: executePerMin,
			CPULoad: psi * executePerMin,
		}
		if saturated {
			w.BackpressureMs = 58_000
		}
		out[i] = w
	}
	return out
}

func TestCalibrateComponentLinearOnly(t *testing.T) {
	ws := synthWindows(10, 5e6, 7.6, false, 1e-7)
	m, err := CalibrateComponent("splitter", 1, ws, nil, CalibrationOptions{Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Instance.Alpha, 7.6, 1e-9) {
		t.Errorf("alpha = %g", m.Instance.Alpha)
	}
	if !math.IsInf(m.Instance.SP, 1) {
		t.Errorf("SP should be +Inf without saturation, got %g", m.Instance.SP)
	}
	if !almost(m.CPUPsi, 1e-7, 1e-6) {
		t.Errorf("psi = %g", m.CPUPsi)
	}
}

func TestCalibrateComponentWithSaturation(t *testing.T) {
	ws := append(synthWindows(6, 5e6, 7.6, false, 1e-7), synthWindows(6, 11e6, 7.6, true, 1e-7)...)
	m, err := CalibrateComponent("splitter", 1, ws, nil, CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Instance.SP, 11e6, 1e-9) {
		t.Errorf("SP = %g, want 11e6", m.Instance.SP)
	}
	if !almost(m.Instance.ST(), 7.6*11e6, 1e-9) {
		t.Errorf("ST = %g", m.Instance.ST())
	}
	// Parallelism divides the saturated rate.
	m3, err := CalibrateComponent("splitter", 3, append(synthWindows(4, 15e6, 7.6, false, 0), synthWindows(4, 33e6, 7.6, true, 0)...), nil, CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m3.Instance.SP, 11e6, 1e-9) {
		t.Errorf("p=3 SP = %g, want 11e6", m3.Instance.SP)
	}
}

func TestCalibrateComponentInstanceShares(t *testing.T) {
	comp := synthWindows(5, 10e6, 1, false, 0)
	hot := synthWindows(5, 6e6, 1, false, 0)
	cold := synthWindows(5, 4e6, 1, false, 0)
	m, err := CalibrateComponent("counter", 2, comp, [][]metrics.Window{hot, cold}, CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.InputShares) != 2 || !almost(m.InputShares[0], 0.6, 1e-9) || !almost(m.InputShares[1], 0.4, 1e-9) {
		t.Errorf("shares = %v", m.InputShares)
	}
}

func TestCalibrateComponentErrors(t *testing.T) {
	if _, err := CalibrateComponent("c", 0, synthWindows(5, 1, 1, false, 0), nil, CalibrationOptions{}); err == nil {
		t.Error("parallelism 0 accepted")
	}
	if _, err := CalibrateComponent("c", 1, synthWindows(3, 1, 1, false, 0), nil, CalibrationOptions{Warmup: 5}); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("warmup > windows: %v", err)
	}
	zero := synthWindows(5, 0, 0, false, 0)
	if _, err := CalibrateComponent("c", 1, zero, nil, CalibrationOptions{}); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("all-zero windows: %v", err)
	}
	if _, err := CalibrateComponent("c", 2, synthWindows(5, 1, 1, false, 0), [][]metrics.Window{synthWindows(5, 1, 1, false, 0)}, CalibrationOptions{}); err == nil {
		t.Error("mismatched instance series accepted")
	}
}

func TestMergeCalibrations(t *testing.T) {
	linear := &ComponentModel{Component: "c", Parallelism: 1, Instance: InstanceModel{Alpha: 7.5, SP: math.Inf(1)}, CPUPsi: 1e-7}
	saturated := &ComponentModel{Component: "c", Parallelism: 1, Instance: InstanceModel{Alpha: 7.7, SP: 11e6}}
	m, err := MergeCalibrations(linear, saturated)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Instance.Alpha, 7.6, 1e-9) {
		t.Errorf("merged alpha = %g", m.Instance.Alpha)
	}
	if !almost(m.Instance.SP, 11e6, 1e-9) {
		t.Errorf("merged SP = %g", m.Instance.SP)
	}
	if m.CPUPsi != 1e-7 {
		t.Errorf("merged psi = %g", m.CPUPsi)
	}
	if _, err := MergeCalibrations(linear, &ComponentModel{Component: "other", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: 1}}); err == nil {
		t.Error("cross-component merge accepted")
	}
	// α, SP and ψ are per-instance, so runs at different parallelisms
	// merge; the deployment-shaped fields are the later run's.
	linear.InputShares = []float64{1}
	wide := &ComponentModel{Component: "c", Parallelism: 2, Instance: InstanceModel{Alpha: 7.7, SP: 11e6}, InputShares: []float64{0.6, 0.4}}
	m, err = MergeCalibrations(linear, wide)
	if err != nil {
		t.Fatal(err)
	}
	if m.Parallelism != 2 || !slices.Equal(m.InputShares, wide.InputShares) {
		t.Errorf("cross-parallelism merge: parallelism %d, shares %v; want 2, %v", m.Parallelism, m.InputShares, wide.InputShares)
	}
	if !almost(m.Instance.Alpha, 7.6, 1e-9) || m.Instance.SP != 11e6 || m.CPUPsi != 1e-7 {
		t.Errorf("cross-parallelism merge: alpha %g, SP %g, psi %g; want 7.6, 11e6, 1e-7", m.Instance.Alpha, m.Instance.SP, m.CPUPsi)
	}
}

// --- topology model tests ----------------------------------------------

func wordCountModel(t *testing.T) *TopologyModel {
	t.Helper()
	top, err := topology.NewBuilder("word-count").
		AddSpout("spout", 2).
		AddBolt("splitter", 2).
		AddBolt("counter", 4).
		Connect("spout", "splitter", topology.ShuffleGrouping).
		Connect("splitter", "counter", topology.FieldsGrouping, "word").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*ComponentModel{
		"spout":    {Component: "spout", Parallelism: 2, Instance: InstanceModel{Alpha: 1, SP: math.Inf(1)}},
		"splitter": {Component: "splitter", Parallelism: 2, Instance: InstanceModel{Alpha: 7.6, SP: 10e6}, CPUPsi: 1e-7},
		"counter":  {Component: "counter", Parallelism: 4, Instance: InstanceModel{Alpha: 0.001, SP: 68e6}, CPUPsi: 1.2e-8},
	}
	tm, err := NewTopologyModel(top, models)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// predictPath evaluates the model and returns its only path.
func predictPath(t *testing.T, tm *TopologyModel, parallelisms map[string]int, rate float64) PathPrediction {
	t.Helper()
	pred, err := tm.Predict(parallelisms, rate)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(pred.Paths))
	}
	return pred.Paths[0]
}

func TestPredictChaining(t *testing.T) {
	tm := wordCountModel(t)
	// Linear regime: 10 M/min source → splitter out 76 M → counter in 76 M.
	pred := predictPath(t, tm, nil, 10e6)
	if !almost(pred.Components[1].OutputRate, 76e6, 1e-9) {
		t.Errorf("splitter out = %g", pred.Components[1].OutputRate)
	}
	if !almost(pred.Components[2].InputRate, 76e6, 1e-9) {
		t.Errorf("counter in = %g", pred.Components[2].InputRate)
	}
	// Saturation point: splitter p=2 → 20 M source; counter p=4 →
	// 272 M / 7.6 ≈ 35.8 M source. Splitter binds.
	if !almost(pred.SaturationSource, 20e6, 1e-9) {
		t.Errorf("t'0 = %g, want 20e6", pred.SaturationSource)
	}
	if pred.Bottleneck != "splitter" {
		t.Errorf("bottleneck = %q", pred.Bottleneck)
	}
	if pred.Risk != RiskLow {
		t.Errorf("risk at 10M = %v", pred.Risk)
	}
	// Above t'0: high risk and clamped output.
	hot := predictPath(t, tm, nil, 25e6)
	if hot.Risk != RiskHigh {
		t.Errorf("risk at 25M = %v", hot.Risk)
	}
	if !hot.Components[1].Saturated {
		t.Error("splitter should be saturated at 25M")
	}
	if !almost(hot.Components[1].OutputRate, 2*7.6*10e6, 1e-9) {
		t.Errorf("saturated splitter out = %g", hot.Components[1].OutputRate)
	}
	// Near t'0 within margin: high.
	if near := predictPath(t, tm, nil, 18.5e6); near.Risk != RiskHigh {
		t.Errorf("risk at 18.5M (margin) = %v", near.Risk)
	}
}

func TestPredictWithOverrides(t *testing.T) {
	tm := wordCountModel(t)
	// Scale splitter to 4: t'0 moves to 35.8M (counter binds).
	pred := predictPath(t, tm, map[string]int{"splitter": 4}, 10e6)
	if pred.Bottleneck != "counter" {
		t.Errorf("bottleneck = %q", pred.Bottleneck)
	}
	wantSat := 4 * 68e6 / 7.6
	if !almost(pred.SaturationSource, wantSat, 1e-9) {
		t.Errorf("t'0 = %g, want %g", pred.SaturationSource, wantSat)
	}
}

func TestPredictErrors(t *testing.T) {
	tm := wordCountModel(t)
	if _, err := tm.Predict(nil, -1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := tm.Predict(map[string]int{"spout": 0}, 1); err == nil {
		t.Error("zero parallelism accepted")
	}
}

func TestTopologyPredict(t *testing.T) {
	tm := wordCountModel(t)
	pred, err := tm.Predict(nil, 15e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Paths) != 1 {
		t.Fatalf("paths = %d", len(pred.Paths))
	}
	if pred.Bottleneck != "splitter" || !almost(pred.SaturationSource, 20e6, 1e-9) {
		t.Errorf("bottleneck %q at %g", pred.Bottleneck, pred.SaturationSource)
	}
	// CPU: splitter 1e-7·15e6·7.6? No: ψ applies to input rate
	// (15e6) → 1.5; counter ψ 1.2e-8 · 114e6 ≈ 1.368.
	wantCPU := 1e-7*15e6 + 1.2e-8*15e6*7.6
	if !almost(pred.TotalCPU, wantCPU, 1e-9) {
		t.Errorf("total cpu = %g, want %g", pred.TotalCPU, wantCPU)
	}
	if pred.Risk != RiskLow {
		t.Errorf("risk = %v", pred.Risk)
	}
}

// TestTwoSpoutsShareTheSourceRate: metrics.SourceRate sums the
// spouts, so each of two spouts carries t₀/2 and a sink fed by both
// saturates when their sum reaches its own capacity.
func TestTwoSpoutsShareTheSourceRate(t *testing.T) {
	top, err := topology.NewBuilder("two-spouts").
		AddSpout("a", 1).
		AddSpout("b", 1).
		AddBolt("sink", 2).
		Connect("a", "sink", topology.ShuffleGrouping).
		Connect("b", "sink", topology.ShuffleGrouping).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTopologyModel(top, map[string]*ComponentModel{
		"a":    {Component: "a", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: math.Inf(1)}},
		"b":    {Component: "b", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: math.Inf(1)}},
		"sink": {Component: "sink", Parallelism: 2, Instance: InstanceModel{Alpha: 0, SP: 5e6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := tm.Predict(nil, 8e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(pred.Paths))
	}
	if pred.SaturationSource != 10e6 || pred.Bottleneck != "sink" || pred.Risk != RiskLow {
		t.Errorf("t'0 %g at %q, risk %v; want 10e6 at sink, low", pred.SaturationSource, pred.Bottleneck, pred.Risk)
	}
	for _, pp := range pred.Paths {
		spout, sink := pp.Components[0], pp.Components[1]
		if spout.SourceRate != 4e6 || sink.SourceRate != 8e6 || sink.Saturated {
			t.Errorf("%v: spout %g, sink %g (saturated %v); want 4e6, 8e6, false", pp.Path, spout.SourceRate, sink.SourceRate, sink.Saturated)
		}
	}
	hot, err := tm.Predict(nil, 12e6)
	if err != nil {
		t.Fatal(err)
	}
	if hot.SinkThroughput != 10e6 || hot.Risk != RiskHigh || !hot.Paths[0].Components[1].Saturated {
		t.Errorf("at 12e6: sink %g, risk %v; want 10e6 saturated, high", hot.SinkThroughput, hot.Risk)
	}
	plan, err := tm.SuggestParallelism(8e6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if plan["sink"] != 2 {
		t.Errorf("suggested sink p = %d, want ceil(8e6·1.25/5e6) = 2", plan["sink"])
	}
}

func TestNewTopologyModelValidation(t *testing.T) {
	top, err := topology.NewBuilder("t").AddSpout("s", 1).AddBolt("b", 1).
		Connect("s", "b", topology.ShuffleGrouping).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTopologyModel(nil, nil); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewTopologyModel(top, map[string]*ComponentModel{}); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("missing models: %v", err)
	}
	bad := map[string]*ComponentModel{
		"s": {Component: "s", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: 1}},
		"b": {Component: "b", Parallelism: 0, Instance: InstanceModel{Alpha: 1, SP: 1}},
	}
	if _, err := NewTopologyModel(top, bad); err == nil {
		t.Error("invalid component model accepted")
	}
}

func TestSuggestParallelism(t *testing.T) {
	tm := wordCountModel(t)
	// At 30 M/min source with 20% headroom: splitter needs
	// ceil(30·1.2/10) = 4, counter ceil(228·1.2/68) = ceil(4.02) = 5.
	got, err := tm.SuggestParallelism(30e6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got["splitter"] != 4 {
		t.Errorf("splitter = %d, want 4", got["splitter"])
	}
	if got["counter"] != 5 {
		t.Errorf("counter = %d, want 5", got["counter"])
	}
	if got["spout"] != 1 { // unsaturable → minimum
		t.Errorf("spout = %d, want 1", got["spout"])
	}
	// The suggestion must evaluate as low-risk.
	pred, err := tm.Predict(got, 30e6)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Risk != RiskLow {
		t.Errorf("suggested plan risk = %v (t'0 %g)", pred.Risk, pred.SaturationSource)
	}
	if _, err := tm.SuggestParallelism(-1, 0); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := tm.SuggestParallelism(1, -1); err == nil {
		t.Error("negative headroom accepted")
	}
}

func TestQuickSuggestedPlansAreAlwaysLowRisk(t *testing.T) {
	tm := wordCountModel(t)
	f := func(rateRaw uint32) bool {
		rate := 1e6 + float64(rateRaw%100)*1e6
		plan, err := tm.SuggestParallelism(rate, 0.3)
		if err != nil {
			return false
		}
		pred, err := tm.Predict(plan, rate)
		if err != nil {
			return false
		}
		return pred.Risk == RiskLow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
