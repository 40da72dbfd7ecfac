package core

import (
	"math"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/metrics"
)

// TestCalibrateTopologyAttributesBottleneck is the regression test for
// bottleneck attribution: when the counter is the bottleneck, the
// spouts' burst-resume cycles push the splitter's queues over the high
// watermark too, so the splitter reports backpressure without being
// saturated. Naive per-component calibration then assigns the splitter
// a spuriously low saturation point; topology-aware calibration must
// not.
func TestCalibrateTopologyAttributesBottleneck(t *testing.T) {
	// Counter-bottleneck run: splitter p=6 (capacity 64.8 M) is wide,
	// counter p=3 (capacity 205 M words ≈ 26.9 M sentences) binds at
	// 35 M sentences/min offered.
	sim, err := heron.NewWordCount(heron.WordCountOptions{SplitterP: 6, CounterP: 3, RatePerMinute: 35e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(12 * time.Minute); err != nil {
		t.Fatal(err)
	}
	prov, err := metrics.NewTSDBProvider(sim.DB(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	window := sim.Start().Add(12 * time.Minute)
	opts := CalibrationOptions{Warmup: 4}

	// Naive calibration is fooled: the splitter looks saturated.
	naive := calibrateNaive(t, prov, "splitter", 6, sim.Start(), window, opts)
	if !naive.Instance.SaturatedObservable() {
		t.Fatalf("precondition failed: naive calibration should see spurious splitter backpressure")
	}
	if naive.Instance.SP > 0.8*heron.SplitterServiceRate*60 {
		t.Fatalf("precondition failed: naive SP %.3g not spuriously low", naive.Instance.SP)
	}

	// Topology-aware calibration attributes the backpressure to the
	// counter and leaves the splitter's SP unknown.
	top, err := heron.WordCountTopology(8, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	models, _, err := CalibrateTopologyFromProviderReport(prov, top, sim.Start(), window, opts)
	if err != nil {
		t.Fatal(err)
	}
	if models["splitter"].Instance.SaturatedObservable() {
		t.Errorf("splitter SP = %.3g, want +Inf (not the bottleneck)", models["splitter"].Instance.SP)
	}
	counter := models["counter"]
	if !counter.Instance.SaturatedObservable() {
		t.Fatal("counter SP not calibrated despite being the bottleneck")
	}
	if e := math.Abs(counter.Instance.SP-heron.CounterServiceRate*60) / (heron.CounterServiceRate * 60); e > 0.05 {
		t.Errorf("counter SP = %.4g, want ≈%.4g (err %.1f%%)", counter.Instance.SP, heron.CounterServiceRate*60.0, 100*e)
	}
	// α and ψ are still calibrated for the splitter.
	if math.Abs(models["splitter"].Instance.Alpha-heron.SplitterAlpha) > 0.01 {
		t.Errorf("splitter alpha = %.4f", models["splitter"].Instance.Alpha)
	}
	if models["splitter"].CPUPsi <= 0 {
		t.Errorf("splitter psi = %g", models["splitter"].CPUPsi)
	}
}

// calibrateNaive calibrates one word-count component from its own
// windows alone, trusting its backpressure metric whatever its
// descendants report — the per-component calibration that topology-aware
// attribution replaces.
func calibrateNaive(t *testing.T, prov metrics.Provider, component string, parallelism int, start, end time.Time, opts CalibrationOptions) *ComponentModel {
	t.Helper()
	comp, err := prov.ComponentWindows("word-count", component, start, end)
	if err != nil {
		t.Fatal(err)
	}
	inst := make([][]metrics.Window, parallelism)
	for i := range inst {
		if inst[i], err = prov.InstanceWindows("word-count", component, i, start, end); err != nil {
			t.Fatal(err)
		}
	}
	m, err := CalibrateComponent(component, parallelism, comp, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCalibrateTopologySplitterBottleneck is the mirror case: the
// splitter binds, the counter inherits nothing (it never backpressures
// behind a slow splitter), and the splitter's SP is calibrated.
func TestCalibrateTopologySplitterBottleneck(t *testing.T) {
	sim, err := heron.NewWordCount(heron.WordCountOptions{SplitterP: 2, CounterP: 6, RatePerMinute: 40e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(12 * time.Minute); err != nil {
		t.Fatal(err)
	}
	prov, err := metrics.NewTSDBProvider(sim.DB(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	top, err := heron.WordCountTopology(8, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	models, _, err := CalibrateTopologyFromProviderReport(prov, top, sim.Start(), sim.Start().Add(12*time.Minute), CalibrationOptions{Warmup: 4})
	if err != nil {
		t.Fatal(err)
	}
	splitter := models["splitter"]
	if !splitter.Instance.SaturatedObservable() {
		t.Fatal("splitter SP not calibrated despite being the bottleneck")
	}
	if e := math.Abs(splitter.Instance.SP-heron.SplitterServiceRate*60) / (heron.SplitterServiceRate * 60); e > 0.05 {
		t.Errorf("splitter SP = %.4g (err %.1f%%)", splitter.Instance.SP, 100*e)
	}
	if models["counter"].Instance.SaturatedObservable() {
		t.Errorf("counter SP = %.3g, want +Inf", models["counter"].Instance.SP)
	}
}

// TestCalibrateTopologyInputShares checks that per-instance input
// shares survive the topology-aware path (biased fields grouping).
func TestCalibrateTopologyInputShares(t *testing.T) {
	keys := heron.ExplicitKeys{Probs: map[string]float64{"hot": 3, "cold": 1}}
	want := keys.Weights(2)
	sim, err := heron.NewWordCount(heron.WordCountOptions{CounterP: 2, CounterKeys: keys, RatePerMinute: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(8 * time.Minute); err != nil {
		t.Fatal(err)
	}
	prov, err := metrics.NewTSDBProvider(sim.DB(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	top, err := heron.WordCountTopology(8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	models, _, err := CalibrateTopologyFromProviderReport(prov, top, sim.Start(), sim.Start().Add(8*time.Minute), CalibrationOptions{Warmup: 3})
	if err != nil {
		t.Fatal(err)
	}
	shares := models["counter"].InputShares
	if len(shares) != 2 {
		t.Fatalf("shares = %v", shares)
	}
	for i := range shares {
		if math.Abs(shares[i]-want[i]) > 0.01 {
			t.Errorf("share[%d] = %.3f, want %.3f", i, shares[i], want[i])
		}
	}
}
