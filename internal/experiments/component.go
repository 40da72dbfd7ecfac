package experiments

import (
	"fmt"

	"caladrius/internal/core"
	"caladrius/internal/heron"
)

// componentModel reproduces Figs. 7, 8, 10, 11 and 12 from one splitter
// calibration at parallelism 3 (a linear and a saturated run, §V-B).
// Figs. 8 and 12 validate its throughput and CPU predictions against one
// deployed sweep at parallelisms 2 and 4.
func componentModel(sweep SweepOptions) ([]Table, error) {
	models, err := calibrateSplitter(3, 8, 20e6, 48e6, sweep)
	if err != nil {
		return nil, err
	}
	splitter := models["splitter"]
	f07, err := fig07(splitter, sweep)
	if err != nil {
		return nil, err
	}
	rates := rateGrid(4e6, 68e6, 8e6)
	ps := []int{2, 4}
	// One task per (rate, parallelism) pair, flattened rate-major so the
	// collection order matches the nested sequential loops.
	validation, err := RunPoints(sweep, len(rates)*len(ps), func(i int) (measuredCI, error) {
		return measureCI(heron.WordCountOptions{SplitterP: ps[i%len(ps)], CounterP: 8, RatePerMinute: rates[i/len(ps)]}, sweep, "splitter")
	})
	if err != nil {
		return nil, err
	}
	f10, err := fig10(models, rates, sweep)
	if err != nil {
		return nil, err
	}
	f11, err := fig11(splitter, rates, sweep)
	if err != nil {
		return nil, err
	}
	f12, err := fig12(splitter, rates, ps, validation)
	if err != nil {
		return nil, err
	}
	return []Table{f07, fig08(splitter, rates, ps, validation), f10, f11, f12}, nil
}

// fig07 reproduces Fig. 7: splitter component throughput measured at
// parallelism 3, with the regression-derived model and its Eq. 9-scaled
// predictions for parallelisms 2 and 4.
func fig07(splitter *core.ComponentModel, sweep SweepOptions) (Table, error) {
	t := Table{
		Title: "Component (splitter) throughput at p=3 with p=2/p=4 predictions",
		Columns: []string{
			"source_Mtpm",
			"p3_input_avg_Mtpm", "p3_input_lo_Mtpm", "p3_input_hi_Mtpm",
			"p3_output_avg_Mtpm", "p3_output_lo_Mtpm", "p3_output_hi_Mtpm",
			"p2_pred_input_Mtpm", "p2_pred_output_Mtpm",
			"p4_pred_input_Mtpm", "p4_pred_output_Mtpm",
		},
	}
	rates := rateGrid(2e6, 68e6, 6e6)
	ms, err := RunPoints(sweep, len(rates), func(i int) (measuredCI, error) {
		return measureCI(heron.WordCountOptions{SplitterP: 3, CounterP: 8, RatePerMinute: rates[i]}, sweep, "splitter")
	})
	if err != nil {
		return t, err
	}
	for i, rate := range rates {
		m := ms[i]
		t.Rows = append(t.Rows, []float64{
			rate / 1e6,
			m.Exec / 1e6, m.ExecLo / 1e6, m.ExecHi / 1e6,
			m.Emit / 1e6, m.EmitLo / 1e6, m.EmitHi / 1e6,
			splitter.Input(2, rate) / 1e6, splitter.Output(2, rate) / 1e6,
			splitter.Input(4, rate) / 1e6, splitter.Output(4, rate) / 1e6,
		})
	}
	t.Findings = append(t.Findings,
		fmt.Sprintf("calibrated α = %.4f, per-instance SP = %.2f M/min", splitter.Instance.Alpha, splitter.Instance.SP/1e6),
		fmt.Sprintf("predicted input knees: p=2 %.1f M, p=4 %.1f M (paper: ≈18 M and ≈36 M)",
			splitter.SaturationSource(2)/1e6, splitter.SaturationSource(4)/1e6),
		fmt.Sprintf("predicted output plateaus: p=2 %.0f M, p=4 %.0f M (paper: ≈140 M and ≈280 M)",
			splitter.MaxOutput(2)/1e6, splitter.MaxOutput(4)/1e6),
	)
	return t, nil
}

// fig08 reproduces Fig. 8: the splitter deployed at parallelisms 2 and
// 4, measured against the Fig. 7 predictions. The paper reports
// saturation-throughput errors of 2.9% (p=2) and 2.5% (p=4).
func fig08(splitter *core.ComponentModel, rates []float64, ps []int, ms []measuredCI) Table {
	t := Table{
		Title: "Validation of splitter predictions at p=2 and p=4",
		Columns: []string{
			"source_Mtpm",
			"p2_meas_output_Mtpm", "p2_pred_output_Mtpm",
			"p4_meas_output_Mtpm", "p4_pred_output_Mtpm",
		},
	}
	type satPair struct{ meas, pred float64 }
	satOut := map[int]*satPair{2: {}, 4: {}}
	for ri, rate := range rates {
		row := []float64{rate / 1e6}
		for pi, p := range ps {
			m := ms[ri*len(ps)+pi]
			pred := splitter.Output(p, rate)
			row = append(row, m.Emit/1e6, pred/1e6)
			if rate >= splitter.SaturationSource(p)*1.2 {
				satOut[p].meas = m.Emit
				satOut[p].pred = pred
			}
		}
		t.Rows = append(t.Rows, row)
	}
	for _, p := range ps {
		if satOut[p].meas > 0 {
			e := relErr(satOut[p].pred, satOut[p].meas)
			t.Findings = append(t.Findings, fmt.Sprintf("p=%d ST prediction error %.1f%% (paper: %.1f%%)",
				p, 100*e, map[int]float64{2: 2.9, 4: 2.5}[p]))
		}
	}
	return t
}

// counterModel reproduces Fig. 9: the counter component's input
// throughput versus its source throughput (the splitter's output) at
// parallelism 3, with the prediction for parallelism 4. The counter is
// fields-grouped; with the evaluation's unbiased dataset it follows
// Eq. 9.
func counterModel(sweep SweepOptions) ([]Table, error) {
	t := Table{
		Title: "Component (counter) input throughput: p=3 observed, p=4 predicted and validated",
		Columns: []string{
			"counter_source_Mtpm", "p3_input_Mtpm", "p4_pred_input_Mtpm", "p4_meas_input_Mtpm",
		},
	}
	// Calibrate the counter at p=3: a linear run and a saturated run.
	// Counter per-instance SP is 68.4 M/min → p=3 saturates at about
	// 205 M words/min ≈ 26.9 M sentences/min offered.
	models, err := calibrateSplitter(8, 3, 20e6, 35e6, sweep)
	if err != nil {
		return nil, err
	}
	counter := models["counter"]
	alpha := heron.SplitterAlpha
	rates := rateGrid(4e6, 64e6, 6e6)
	counterPs := []int{3, 4}
	ms, err := RunPoints(sweep, len(rates)*2, func(i int) (measuredCI, error) {
		return measureCI(heron.WordCountOptions{SplitterP: 8, CounterP: counterPs[i%2], RatePerMinute: rates[i/2]}, sweep, "counter")
	})
	if err != nil {
		return nil, err
	}
	for i, sentences := range rates {
		counterSource := sentences * alpha
		p3, p4 := ms[2*i], ms[2*i+1]
		t.Rows = append(t.Rows, []float64{
			counterSource / 1e6,
			p3.Exec / 1e6,
			counter.Input(4, counterSource) / 1e6,
			p4.Exec / 1e6,
		})
	}
	// Validation error at the deepest saturated point.
	last := t.Rows[len(t.Rows)-1]
	e := relErr(last[2], last[3])
	t.Findings = append(t.Findings,
		fmt.Sprintf("counter per-instance SP = %.1f M/min; p=3 plateau ≈ %.0f M (paper: ≈205 M)",
			counter.Instance.SP/1e6, 3*counter.Instance.SP/1e6),
		fmt.Sprintf("p=4 input prediction error at saturation %.1f%%", 100*e),
	)
	return []Table{t}, nil
}

// fig10 reproduces Fig. 10: the topology output throughput predicted by
// chaining the calibrated component models (Eq. 12) versus a deployed
// measurement, using the Fig. 1 parallelisms (spout 2, splitter 2,
// counter 4). The paper reports a 2.8% error.
func fig10(models map[string]*core.ComponentModel, rates []float64, sweep SweepOptions) (Table, error) {
	t := Table{
		Title:   "Topology (critical path) output throughput: prediction vs measurement",
		Columns: []string{"source_Mtpm", "predicted_out_Mtpm", "measured_out_Mtpm"},
	}
	top, err := heron.WordCountTopology(2, 2, 4)
	if err != nil {
		return t, err
	}
	tm, err := core.NewTopologyModel(top, models)
	if err != nil {
		return t, err
	}
	var satPred, satMeas float64
	type pointRes struct {
		sinkIn float64
		meas   measuredCI
	}
	// Each task pairs the model's dry-run evaluation with the deployed
	// measurement it is validated against; TopologyModel.Predict is
	// read-only, so the shared model is safe across workers.
	ms, err := RunPoints(sweep, len(rates), func(i int) (pointRes, error) {
		pred, err := tm.Predict(nil, rates[i])
		if err != nil {
			return pointRes{}, err
		}
		// The topology's output is the sink's processing throughput.
		m, err := measureCI(heron.WordCountOptions{SpoutP: 2, SplitterP: 2, CounterP: 4, RatePerMinute: rates[i]}, sweep, "counter")
		if err != nil {
			return pointRes{}, err
		}
		return pointRes{sinkIn: pred.SinkThroughput, meas: m}, nil
	})
	if err != nil {
		return t, err
	}
	for i, rate := range rates {
		sinkIn, m := ms[i].sinkIn, ms[i].meas
		t.Rows = append(t.Rows, []float64{rate / 1e6, sinkIn / 1e6, m.Exec / 1e6})
		if rate >= 40e6 {
			satPred, satMeas = sinkIn, m.Exec
		}
	}
	e := relErr(satPred, satMeas)
	t.Findings = append(t.Findings,
		fmt.Sprintf("saturated topology output: predicted %.0f M, measured %.0f M, error %.1f%% (paper: 2.8%%)",
			satPred/1e6, satMeas/1e6, 100*e),
	)
	return t, nil
}

// fig11 reproduces Fig. 11: splitter component CPU load versus source
// throughput at parallelism 3, with the ψ-regression and the predicted
// lines for parallelisms 2 and 4 (§V-E).
func fig11(splitter *core.ComponentModel, rates []float64, sweep SweepOptions) (Table, error) {
	t := Table{
		Title: "Splitter CPU load at p=3 with p=2/p=4 predictions",
		Columns: []string{
			"source_Mtpm", "p3_cpu_cores", "p2_pred_cpu_cores", "p4_pred_cpu_cores",
		},
	}
	if splitter.CPUPsi <= 0 {
		return t, fmt.Errorf("fig11: ψ not calibrated")
	}
	ms, err := RunPoints(sweep, len(rates), func(i int) (measuredCI, error) {
		return measureCI(heron.WordCountOptions{SplitterP: 3, CounterP: 8, RatePerMinute: rates[i]}, sweep, "splitter")
	})
	if err != nil {
		return t, err
	}
	for i, rate := range rates {
		p2, err := splitter.CPU(2, rate)
		if err != nil {
			return t, err
		}
		p4, err := splitter.CPU(4, rate)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []float64{rate / 1e6, ms[i].CPU, p2, p4})
	}
	t.Findings = append(t.Findings,
		fmt.Sprintf("ψ = %.3g cores per (tuple/min); CPU is linear in input rate, saturating with throughput", splitter.CPUPsi),
	)
	return t, nil
}

// fig12 reproduces Fig. 12: measured CPU load of the splitter deployed
// at parallelisms 2 and 4 versus the predictions. The paper reports
// errors of 4.8% (p=2) and 3.0% (p=4).
func fig12(splitter *core.ComponentModel, rates []float64, ps []int, ms []measuredCI) (Table, error) {
	t := Table{
		Title: "Validation of splitter CPU-load predictions at p=2 and p=4",
		Columns: []string{
			"source_Mtpm",
			"p2_meas_cpu", "p2_pred_cpu",
			"p4_meas_cpu", "p4_pred_cpu",
		},
	}
	worst := map[int]float64{}
	for ri, rate := range rates {
		row := []float64{rate / 1e6}
		for pi, p := range ps {
			m := ms[ri*len(ps)+pi]
			pred, err := splitter.CPU(p, rate)
			if err != nil {
				return t, err
			}
			row = append(row, m.CPU, pred)
			if m.CPU > 0 {
				if e := relErr(pred, m.CPU); e > worst[p] {
					worst[p] = e
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	for _, p := range ps {
		t.Findings = append(t.Findings, fmt.Sprintf("p=%d worst-case CPU prediction error %.1f%% (paper: %.1f%%)",
			p, 100*worst[p], map[int]float64{2: 4.8, 4: 3.0}[p]))
	}
	return t, nil
}
