package core

import (
	"math"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/metrics"
)

// TestBiasedFieldsGroupingModel validates Equations 10–11 against the
// simulator: with a biased key set, the component's observed
// per-instance input shares are frozen, traffic is scaled by β, and
// the model predicts the partially-saturated regime where the hot
// instance clamps at its ST while cold instances keep scaling.
func TestBiasedFieldsGroupingModel(t *testing.T) {
	keys := heron.ExplicitKeys{Probs: map[string]float64{"hot": 3, "cold": 1}}
	w := keys.Weights(2) // one instance gets 75%, the other 25%
	hotShare := math.Max(w[0], w[1])

	// Calibrate the counter at p=2 in the linear regime (shares) and a
	// saturated run (SP). With 75/25 bias, the hot counter instance
	// (SP 68.4 M) saturates when counter source exceeds 68.4/0.75 ≈
	// 91.2 M words ≈ 11.9 M sentences — well before the splitters.
	models := map[string]*ComponentModel{}
	for _, sentences := range []float64{6e6, 18e6} {
		sim, err := heron.NewWordCount(heron.WordCountOptions{
			SplitterP: 4, CounterP: 2, CounterKeys: keys, RatePerMinute: sentences,
		})
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
		top, err := heron.WordCountTopology(8, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
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
	counter := models["counter"]
	if len(counter.InputShares) != 2 {
		t.Fatalf("shares not calibrated: %v", counter.InputShares)
	}
	gotHot := math.Max(counter.InputShares[0], counter.InputShares[1])
	if math.Abs(gotHot-hotShare) > 0.01 {
		t.Fatalf("hot share = %.3f, want %.3f", gotHot, hotShare)
	}
	if !counter.Instance.SaturatedObservable() {
		t.Fatal("counter SP not calibrated")
	}

	// The biased saturation source is earlier than the uniform one.
	biasedSat := counter.SaturationSource(2)
	uniformSat := 2 * counter.Instance.SP
	if biasedSat >= uniformSat*0.8 {
		t.Errorf("biased saturation %.3g should be well below uniform %.3g", biasedSat, uniformSat)
	}

	// Validate the partially-saturated prediction (Eq. 11): pick a
	// counter source rate between hot-instance saturation and cold
	// saturation, predict, and deploy.
	sentences := 15e6 // counter source ≈ 114.5 M: hot saturated, cold linear
	counterSource := sentences * heron.SplitterAlpha
	predicted := counter.Input(2, counterSource)
	sim, err := heron.NewWordCount(heron.WordCountOptions{
		SplitterP: 4, CounterP: 2, CounterKeys: keys, RatePerMinute: sentences,
	})
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
	ws, err := prov.ComponentWindows("word-count", "counter", sim.Start(), sim.Start().Add(12*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := metrics.Summarise(ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(predicted-ss.Execute) / ss.Execute; e > 0.05 {
		t.Errorf("partially-saturated input: predicted %.4g measured %.4g (err %.1f%%)", predicted, ss.Execute, 100*e)
	}
	// The prediction must be meaningfully below the naive uniform
	// estimate (which would claim the full rate flows).
	if counterSource < counter.MaxOutput(2) && predicted >= counterSource*0.99 {
		t.Errorf("bias model predicts %.4g, indistinguishable from uniform %.4g", predicted, counterSource)
	}
}
