package core

import (
	"math"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/metrics"
)

// calibrateWordCount runs the simulator at the given parallelisms twice
// — once in the linear regime and once saturated — and calibrates every
// component, merging the two runs (§V-B: one data point in each
// interval suffices).
func calibrateWordCount(t *testing.T, splitterP, counterP int, linearRate, satRate float64) map[string]*ComponentModel {
	t.Helper()
	models := map[string]*ComponentModel{}
	for i, rate := range []float64{linearRate, satRate} {
		sim, err := heron.NewWordCount(heron.WordCountOptions{SplitterP: splitterP, CounterP: counterP, RatePerMinute: rate})
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
		top, err := heron.WordCountTopology(8, splitterP, counterP)
		if err != nil {
			t.Fatal(err)
		}
		run, _, err := CalibrateTopologyFromProviderReport(prov, top, sim.Start(), sim.Start().Add(12*time.Minute), CalibrationOptions{Warmup: 4})
		if err != nil {
			t.Fatalf("calibrate run %d: %v", i, err)
		}
		for comp, m := range run {
			if prev, ok := models[comp]; ok {
				merged, err := MergeCalibrations(prev, m)
				if err != nil {
					t.Fatal(err)
				}
				models[comp] = merged
			} else {
				models[comp] = m
			}
		}
	}
	return models
}

// measureSaturatedThroughput runs a fresh simulation at a deeply
// saturating rate and returns the steady-state component input and
// output rates in tuples/minute.
func measureSaturated(t *testing.T, splitterP, counterP int, rate float64, component string) (in, out float64) {
	t.Helper()
	sim, err := heron.NewWordCount(heron.WordCountOptions{SplitterP: splitterP, CounterP: counterP, RatePerMinute: rate})
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
	ws, err := prov.ComponentWindows("word-count", component, sim.Start(), sim.Start().Add(12*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := metrics.Summarise(ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ss.Execute, ss.Emit
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

// TestPaperValidationComponentScaling reproduces §V-C: calibrate the
// splitter at parallelism 3, predict the saturated throughput at
// parallelisms 2 and 4, and validate against deployments. The paper
// reports ST prediction errors of 2.9% (p=2) and 2.5% (p=4); we demand
// < 5%.
func TestPaperValidationComponentScaling(t *testing.T) {
	// Calibrate at p=3 (counter kept wide so the splitter is the
	// bottleneck in the saturated run).
	models := calibrateWordCount(t, 3, 8, 20e6, 45e6)
	splitter := models["splitter"]
	if math.IsInf(splitter.Instance.SP, 1) {
		t.Fatal("splitter SP not calibrated")
	}
	if relErr(splitter.Instance.Alpha, heron.SplitterAlpha) > 0.01 {
		t.Errorf("alpha = %g", splitter.Instance.Alpha)
	}

	for _, p := range []int{2, 4} {
		predictedST := splitter.MaxOutput(p)
		predictedSP := splitter.SaturationSource(p)
		// Deploy at the new parallelism, deeply saturated.
		in, out := measureSaturated(t, p, 8, predictedSP*1.5, "splitter")
		if e := relErr(out, predictedST); e > 0.05 {
			t.Errorf("p=%d ST: predicted %.4g measured %.4g (err %.1f%%)", p, predictedST, out, 100*e)
		}
		if e := relErr(in, predictedSP); e > 0.05 {
			t.Errorf("p=%d SP: predicted %.4g measured %.4g (err %.1f%%)", p, predictedSP, in, 100*e)
		}
	}
}

// TestPaperValidationCriticalPath reproduces §V-D: chain the calibrated
// component models along the critical path and compare the predicted
// topology output throughput against a deployment. The paper reports a
// 2.8% error.
func TestPaperValidationCriticalPath(t *testing.T) {
	models := calibrateWordCount(t, 3, 8, 20e6, 45e6)
	top, err := heron.WordCountTopology(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTopologyModel(top, models)
	if err != nil {
		t.Fatal(err)
	}

	// Saturated regime with the Fig. 1 parallelisms (splitter 2,
	// counter 4): splitter binds at 21.6 M/min source.
	pred, err := tm.Predict(nil, 40e6)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Bottleneck != "splitter" {
		t.Errorf("bottleneck = %q", pred.Bottleneck)
	}
	// Measure the deployed topology's sink throughput at the same rate.
	_, counterOut := measureSaturated(t, 2, 4, 40e6, "counter")
	counterIn, _ := measureSaturated(t, 2, 4, 40e6, "counter")
	_ = counterOut
	if e := relErr(counterIn, pred.Paths[0].Components[2].InputRate); e > 0.05 {
		t.Errorf("topology output: predicted %.4g measured %.4g (err %.1f%%)",
			pred.Paths[0].Components[2].InputRate, counterIn, 100*e)
	}

	// Linear regime prediction also matches.
	predLin, err := tm.Predict(nil, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	inLin, _ := measureSaturated(t, 2, 4, 10e6, "counter")
	if e := relErr(inLin, predLin.Paths[0].Components[2].InputRate); e > 0.05 {
		t.Errorf("linear topology output: predicted %.4g measured %.4g (err %.1f%%)",
			predLin.Paths[0].Components[2].InputRate, inLin, 100*e)
	}
}

// TestPaperValidationCPULoad reproduces §V-E: fit ψ at parallelism 3,
// predict CPU load at parallelisms 2 and 4, validate against
// deployments. The paper reports errors of 4.8% (p=2) and 3.0% (p=4);
// we demand < 6%.
func TestPaperValidationCPULoad(t *testing.T) {
	models := calibrateWordCount(t, 3, 8, 20e6, 45e6)
	splitter := models["splitter"]
	if splitter.CPUPsi <= 0 {
		t.Fatal("psi not calibrated")
	}
	for _, p := range []int{2, 4} {
		rate := 0.8 * splitter.SaturationSource(p) // below saturation
		predicted, err := splitter.CPU(p, rate)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := heron.NewWordCount(heron.WordCountOptions{SplitterP: p, CounterP: 8, RatePerMinute: rate})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		prov, _ := metrics.NewTSDBProvider(sim.DB(), time.Minute)
		ws, err := prov.ComponentWindows("word-count", "splitter", sim.Start(), sim.Start().Add(10*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		ss, err := metrics.Summarise(ws, 3)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(ss.CPULoad, predicted); e > 0.06 {
			t.Errorf("p=%d CPU: predicted %.3f measured %.3f cores (err %.1f%%)", p, predicted, ss.CPULoad, 100*e)
		}
	}
}

// TestBackpressureRiskMatchesSimulator checks Eq. 14 against observed
// backpressure: rates the model calls low-risk produce no backpressure
// in the simulator, and high-risk rates produce bimodal backpressure.
func TestBackpressureRiskMatchesSimulator(t *testing.T) {
	models := calibrateWordCount(t, 3, 8, 20e6, 45e6)
	top, err := heron.WordCountTopology(8, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTopologyModel(top, models)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rate float64
		want Risk
	}{
		{20e6, RiskLow},
		{40e6, RiskHigh},
	} {
		pred, err := tm.Predict(nil, tc.rate)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Risk != tc.want {
			t.Errorf("rate %.3g: risk = %v, want %v (t'0 %.3g)", tc.rate, pred.Risk, tc.want, pred.SaturationSource)
		}
		sim, err := heron.NewWordCount(heron.WordCountOptions{SplitterP: 3, CounterP: 8, RatePerMinute: tc.rate})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		prov, _ := metrics.NewTSDBProvider(sim.DB(), time.Minute)
		pts, err := prov.TopologyBackpressureMs("word-count", sim.Start().Add(4*time.Minute), sim.Start().Add(10*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		var avg float64
		for _, p := range pts {
			avg += p.V
		}
		avg /= float64(len(pts))
		if tc.want == RiskLow && avg > 1000 {
			t.Errorf("rate %.3g: predicted low risk but bp = %.0f ms", tc.rate, avg)
		}
		if tc.want == RiskHigh && avg < 50_000 {
			t.Errorf("rate %.3g: predicted high risk but bp = %.0f ms", tc.rate, avg)
		}
	}
}
