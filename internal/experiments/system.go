package experiments

import (
	"fmt"
	"math"
	"time"

	"caladrius/internal/dhalion"
	"caladrius/internal/forecast"
	"caladrius/internal/heron"
	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

// trafficForecast exercises §IV-A: fit the Prophet-substitute and the
// summary model on a week of strongly seasonal synthetic traffic and
// compare their forecast accuracy over the next day. The paper's
// premise is that seasonal production traffic defeats summary
// statistics but suits an additive seasonal model. It simulates no
// deployment, so the sweep shapes only its worker pool.
func trafficForecast(sweep SweepOptions) ([]Table, error) {
	t := Table{
		Title:   "Traffic forecasting on seasonal traffic: prophet vs summary (§IV-A)",
		Columns: []string{"horizon_hour", "truth_Mtpm", "prophet_Mtpm", "summary_Mtpm"},
	}
	start := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	spec := workload.TrafficSpec{
		Base: 20e6, DailyAmplitude: 0.4, WeeklyAmplitude: 0.15,
		TrendPerDay: 2e5, NoiseStd: 0.02, OutlierProb: 0.005, OutlierScale: 8,
		MissingProb: 0.05, Seed: 99,
	}
	history := spec.Generate(start, 7*24*60, time.Minute)
	pts := make([]tsdb.Point, len(history))
	for i, p := range history {
		pts[i] = tsdb.Point{T: p.T, V: p.V}
	}
	horizonStart := start.Add(7 * 24 * time.Hour)
	horizon := forecast.Horizon(horizonStart.Add(-time.Minute), time.Minute, 24*60)

	// The two models fit and predict independently over the same
	// history; run them as two pool tasks.
	names := []string{"prophet", "summary"}
	preds, err := RunPoints(sweep, len(names), func(i int) ([]forecast.Prediction, error) {
		m, err := forecast.New(names[i], nil)
		if err != nil {
			return nil, err
		}
		if err := m.Fit(pts); err != nil {
			return nil, err
		}
		return m.Predict(horizon)
	})
	if err != nil {
		return nil, err
	}
	pPreds, sPreds := preds[0], preds[1]

	var pMAPE, sMAPE float64
	for i, tm := range horizon {
		truth := spec.ValueAt(start, tm)
		pMAPE += math.Abs(pPreds[i].Mean-truth) / truth
		sMAPE += math.Abs(sPreds[i].Mean-truth) / truth
		if i%60 == 0 {
			t.Rows = append(t.Rows, []float64{float64(i / 60), truth / 1e6, pPreds[i].Mean / 1e6, sPreds[i].Mean / 1e6})
		}
	}
	pMAPE /= float64(len(horizon))
	sMAPE /= float64(len(horizon))
	t.Findings = append(t.Findings,
		fmt.Sprintf("24h-ahead MAPE: prophet %.1f%%, summary %.1f%% (seasonality defeats summary statistics)", 100*pMAPE, 100*sMAPE),
	)
	if pMAPE >= sMAPE {
		return nil, fmt.Errorf("traffic experiment: prophet (%.3f) did not beat summary (%.3f)", pMAPE, sMAPE)
	}
	return []Table{t}, nil
}

// dhalionVsCaladrius reproduces the paper's headline motivation (§V):
// Dhalion converges on a throughput SLO through many reactive
// deploy-measure rounds, while Caladrius' model-driven loop needs one
// round per distinct bottleneck plus the final verification. Both loops
// deploy with their own fixed minutes at the simulator's default tick,
// not the sweep's; the sweep shapes only the worker pool.
func dhalionVsCaladrius(sweep SweepOptions) ([]Table, error) {
	t := Table{
		Title:   "Deployments to reach SLO: Dhalion reactive scaling vs Caladrius dry-run planning",
		Columns: []string{"round", "dhalion_splitter_p", "dhalion_counter_p", "dhalion_throughput_Mtpm"},
	}
	const rate = 40e6
	slo := rate * heron.SplitterAlpha * 0.98

	// Dhalion's reactive loop and Caladrius' model-driven loop explore
	// independent deployment sequences from one start, which neither
	// writes; race them on two workers.
	start := map[string]int{"spout": 8, "splitter": 1, "counter": 1}
	results, err := RunPoints(sweep, 2, func(i int) (dhalion.Result, error) {
		if i == 0 {
			return dhalion.Scaler{RatePerMinute: rate, SLOThroughputTPM: slo}.Run(start)
		}
		return dhalion.CaladriusTuner{RatePerMinute: rate, SLOThroughputTPM: slo}.Run(start)
	})
	if err != nil {
		return nil, err
	}
	dres, cres := results[0], results[1]
	for i, r := range dres.Rounds {
		t.Rows = append(t.Rows, []float64{
			float64(i + 1),
			float64(r.Parallelisms["splitter"]),
			float64(r.Parallelisms["counter"]),
			r.Measurement.SinkThroughputTPM / 1e6,
		})
	}

	// Caladrius: the model-driven calibrate-and-plan loop. Each
	// deployment pins its bottleneck's saturation point; convergence
	// takes roughly one round per distinct bottleneck plus the final
	// verification.
	if !cres.Converged {
		return nil, fmt.Errorf("caladrius tuner did not converge: %s", cres.Reason)
	}
	caladriusDeploys := cres.Deployments()
	plan := cres.FinalParallelisms
	last := cres.Rounds[len(cres.Rounds)-1].Measurement
	if last.SinkThroughputTPM < slo {
		return nil, fmt.Errorf("caladrius plan %v missed SLO: %.3g < %.3g", plan, last.SinkThroughputTPM, slo)
	}
	t.Findings = append(t.Findings,
		fmt.Sprintf("dhalion: %d deployments to converge (splitter %d, counter %d)",
			dres.Deployments(), dres.FinalParallelisms["splitter"], dres.FinalParallelisms["counter"]),
		fmt.Sprintf("caladrius: %d deployments (model loop converged on splitter=%d counter=%d)",
			caladriusDeploys, plan["splitter"], plan["counter"]),
		fmt.Sprintf("reduction: %.1fx fewer deployments", float64(dres.Deployments())/float64(caladriusDeploys)),
	)
	if caladriusDeploys >= dres.Deployments() {
		return nil, fmt.Errorf("caladrius (%d) did not beat dhalion (%d)", caladriusDeploys, dres.Deployments())
	}
	return []Table{t}, nil
}
