package main

import (
	"encoding/json"
	"fmt"
	"math"

	"caladrius/internal/core"
)

// The oracle re-computes sampled answers in-process with internal/core
// over an identically simulated history. The daemon's answer crossed
// calibration cache, scheduler, audit hook and JSON; the oracle's did
// not, so agreement shows none of them altered the model's result.

// oracleSamples is how many predict/plan answers per run are compared.
const oracleSamples = 32

// nearlyEqual reports whether two floats agree to within rounding: sums over
// Go maps (total CPU) may associate differently between two runs.
func nearlyEqual(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func comparePrediction(got predictionWire, want core.TopologyPrediction) error {
	num := func(name string, g, w float64) error {
		if math.IsInf(w, 1) {
			return fmt.Errorf("%s: oracle has +Inf, which JSON cannot carry", name)
		}
		if !nearlyEqual(g, w) {
			return fmt.Errorf("%s: daemon %v, oracle %v", name, g, w)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		g, w float64
	}{
		{"source_rate_tpm", got.SourceRate, want.SourceRate},
		{"output_rate_tpm", got.OutputRate, want.OutputRate},
		{"sink_throughput_tpm", got.SinkThroughput, want.SinkThroughput},
		{"saturation_source_tpm", got.SaturationSource, want.SaturationSource},
		{"total_cpu_cores", got.TotalCPU, want.TotalCPU},
	} {
		if err := num(c.name, c.g, c.w); err != nil {
			return err
		}
	}
	if got.Bottleneck != want.Bottleneck || got.Risk != string(want.Risk) {
		return fmt.Errorf("bottleneck/risk: daemon %s/%s, oracle %s/%s", got.Bottleneck, got.Risk, want.Bottleneck, want.Risk)
	}
	if len(got.Paths) != len(want.Paths) {
		return fmt.Errorf("paths: daemon %d, oracle %d", len(got.Paths), len(want.Paths))
	}
	for i, wp := range want.Paths {
		gp := got.Paths[i]
		if len(gp.Components) != len(wp.Components) {
			return fmt.Errorf("path %d components: daemon %d, oracle %d", i, len(gp.Components), len(wp.Components))
		}
		for j, wc := range wp.Components {
			gc := gp.Components[j]
			if gc.Component != wc.Component || gc.Parallelism != wc.Parallelism || gc.Saturated != wc.Saturated {
				return fmt.Errorf("path %d component %d: daemon %+v, oracle %+v", i, j, gc, wc)
			}
			if err := num(wc.Component+".output_rate_tpm", gc.OutputRate, wc.OutputRate); err != nil {
				return err
			}
			if err := num(wc.Component+".cpu_load_cores", gc.CPULoad, wc.CPULoad); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkOracle compares up to oracleSamples valid predict and plan
// answers, evenly spaced through samples, with the in-process result
// for the same input. It returns how many it compared. A workload that
// sends neither costs no simulation.
func checkOracle(samples []sample) (int, error) {
	var idx []int
	for i := range samples {
		if op := samples[i].req.Op; (op == opPredict || op == opPlan) && samples[i].err == nil && samples[i].status == 200 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0, nil
	}
	st, err := newStack(false)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	observed, err := st.observedRate()
	if err != nil {
		return 0, fmt.Errorf("oracle: observed rate: %w", err)
	}
	step := len(idx) / oracleSamples
	if step == 0 {
		step = 1
	}
	compared := 0
	for k := 0; k < len(idx) && compared < oracleSamples; k += step {
		s := &samples[idx[k]]
		var got predictWire
		if err := json.Unmarshal(s.body, &got); err != nil {
			return compared, fmt.Errorf("oracle: %s answer: %w", s.req.Op, err)
		}
		rate := s.req.RateTPM
		if rate == 0 {
			rate = observed
		}
		if got.EvaluatedRateTPM != rate {
			return compared, fmt.Errorf("oracle: %s %s evaluated at %v, oracle at %v", s.req.Op, s.req.Body, got.EvaluatedRateTPM, rate)
		}
		par := s.req.Parallelism
		if s.req.Op == opPlan {
			// The API plans with its default 20 % headroom.
			if par, err = st.model.SuggestParallelism(rate, 0.2); err != nil {
				return compared, fmt.Errorf("oracle: suggest: %w", err)
			}
			if fmt.Sprint(got.Parallelism) != fmt.Sprint(par) {
				return compared, fmt.Errorf("oracle: plan %s: daemon %v, oracle %v", s.req.Body, got.Parallelism, par)
			}
		}
		want, err := st.model.Predict(par, rate)
		if err != nil {
			return compared, fmt.Errorf("oracle: predict: %w", err)
		}
		if err := comparePrediction(got.Prediction, want); err != nil {
			return compared, fmt.Errorf("oracle: %s %s: %w", s.req.Op, s.req.Body, err)
		}
		compared++
	}
	return compared, nil
}

// checkLinearity verifies Eq. 9 over the wire: with the counter wide
// enough not to bottleneck, the topology's saturation source rate must
// scale linearly with splitter parallelism.
func checkLinearity(w *worker) error {
	var base float64
	for p := 1; p <= 4; p++ {
		body := fmt.Sprintf(`{"parallelism":{"counter":64,"splitter":%d},"source_rate_tpm":10000000}`, p)
		status, data, err := w.roundTrip("POST", topologyPath("performance"), body, "")
		if err != nil {
			return err
		}
		var got predictWire
		if status != 200 {
			return fmt.Errorf("linearity probe p=%d: status %d", p, status)
		}
		if err := decode(data, &got); err != nil {
			return fmt.Errorf("linearity probe p=%d: %w", p, err)
		}
		if got.Prediction.Bottleneck != "splitter" {
			return fmt.Errorf("linearity probe p=%d: bottleneck %q, want splitter", p, got.Prediction.Bottleneck)
		}
		if p == 1 {
			base = got.Prediction.SaturationSource
			continue
		}
		if want := base * float64(p); !nearlyEqual(got.Prediction.SaturationSource, want) {
			return fmt.Errorf("Eq. 9: saturation_source_tpm at splitter p=%d is %v, want %d x %v", p, got.Prediction.SaturationSource, p, base)
		}
	}
	return nil
}
