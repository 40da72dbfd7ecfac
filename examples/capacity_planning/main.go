// Capacity planning from a recorded traffic trace: the operator
// workflow for a topology whose traffic is known only as a recording.
//
//  1. Replay a recorded (CSV-style) daily traffic profile, looped over
//     three days, through the simulated topology to build metric
//     history.
//  2. Backtest the configured forecast models on that history and pick
//     the most accurate one (the model-selection problem the paper's
//     pluggable model tier raises).
//  3. Forecast tomorrow's peak with the winning model.
//  4. Ask the planner for the minimal parallelisms that absorb the peak
//     with headroom, and dry-run-verify the plan.
//
// Run with: go run ./examples/capacity_planning
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/forecast"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// buildTraceCSV fabricates the "recorded" trace: a business-day double
// peak sampled every 15 minutes, as an operator might export it from
// their metrics system.
func buildTraceCSV() string {
	var b strings.Builder
	b.WriteString("elapsed_seconds,tuples_per_minute\n")
	for m := 0; m <= 24*60; m += 15 {
		h := float64(m) / 60
		rate := 10e6
		// Morning ramp to a lunchtime peak, dip, evening peak.
		switch {
		case h >= 7 && h < 12:
			rate = 10e6 + (h-7)/5*14e6
		case h >= 12 && h < 15:
			rate = 24e6 - (h-12)/3*6e6
		case h >= 15 && h < 20:
			rate = 18e6 + (h-15)/5*12e6
		case h >= 20:
			rate = 30e6 - (h-20)/4*20e6
		}
		fmt.Fprintf(&b, "%d,%.0f\n", m*60, rate)
	}
	return b.String()
}

func run() error {
	// --- 1. Replay the recorded day through the topology. -------------
	trace, err := workload.ParseTraceCSV(strings.NewReader(buildTraceCSV()))
	if err != nil {
		return err
	}
	trace.Interpolate = true
	trace.Loop = true
	fmt.Printf("== replaying the recorded daily profile (peak %.0f M tuples/min) for 3 days through word-count (splitter=6, counter=3)\n",
		trace.RateAt(20*time.Hour)/1e6)
	// The evening peak exceeds the counter's p=3 capacity (≈26.9 M
	// sentences/min), so the bottleneck saturates daily and its SP is
	// observable from history alone. Calibration skips the first 10
	// minutes as warm-up.
	d, err := metrics.DeployWordCount(heron.WordCountOptions{
		SplitterP: 6, CounterP: 3,
		Schedule: trace.Schedule(),
		Tick:     time.Second,
	}, 10, 3*24*60-10)
	if err != nil {
		return err
	}
	prov, start, end, top := d.Provider, d.Start, d.AsOf, d.Topology

	// --- 2. Pick the best forecast model by backtest. ------------------
	history, err := prov.SourceRate(top.Name(), top.Spouts(), start, end)
	if err != nil {
		return err
	}
	candidates := []struct {
		Name    string
		Options map[string]any
	}{
		{"prophet", nil},
		{"holtwinters", nil},
		{"summary", nil},
	}
	ranked := forecast.Rank(candidates, history, 0.2)
	fmt.Println("== backtest ranking on the topology's own history (last 20% held out):")
	for _, r := range ranked {
		if r.Err != nil {
			fmt.Printf("   %-12s not evaluable: %v\n", r.Model, r.Err)
			continue
		}
		fmt.Printf("   %-12s MAPE %5.1f%%  interval coverage %3.0f%%\n", r.Model, 100*r.Accuracy.MAPE, 100*r.Accuracy.Coverage)
	}
	best := ranked[0]
	if best.Err != nil {
		return fmt.Errorf("no forecast model evaluable: %v", best.Err)
	}

	// --- 3. Forecast tomorrow's peak with the winner. ------------------
	m, err := forecast.New(best.Model, best.Options)
	if err != nil {
		return err
	}
	if err := m.Fit(history); err != nil {
		return err
	}
	preds, err := m.Predict(forecast.Horizon(end, time.Minute, 24*60))
	if err != nil {
		return err
	}
	var peak float64
	for _, p := range preds {
		if p.Upper > peak {
			peak = p.Upper
		}
	}
	fmt.Printf("== %s forecasts tomorrow's peak at %.1f M tuples/min (upper band)\n", best.Model, peak/1e6)

	// --- 4. Plan capacity for the peak and dry-run-verify it. ----------
	models, _, err := core.CalibrateTopologyFromProviderReport(prov, top, start, end, core.CalibrationOptions{Warmup: d.Warmup})
	if err != nil {
		return err
	}
	tm, err := core.NewTopologyModel(top, models)
	if err != nil {
		return err
	}
	plan, err := tm.SuggestParallelism(peak, 0.2)
	if err != nil {
		return err
	}
	for _, spout := range top.Spouts() {
		plan[spout] = top.Component(spout).Parallelism // spouts stay as deployed
	}
	// Only components whose saturation point was observed can be
	// sized; the rest keep their current (never-saturated) parallelism.
	for _, c := range top.Components() {
		if m, ok := models[c.Name]; ok && !m.Instance.SaturatedObservable() {
			if plan[c.Name] < c.Parallelism {
				fmt.Printf("   (%s never saturated in the trace; keeping its current parallelism %d)\n", c.Name, c.Parallelism)
				plan[c.Name] = c.Parallelism
			}
		}
	}
	pred, err := tm.Predict(plan, peak)
	if err != nil {
		return err
	}
	fmt.Printf("== plan for the peak: splitter=%d counter=%d → risk %s, saturates at %.1f M, %.1f cores\n",
		plan["splitter"], plan["counter"], pred.Risk, pred.SaturationSource/1e6, pred.TotalCPU)
	if pred.Risk != core.RiskLow {
		return fmt.Errorf("planned configuration still at risk")
	}

	fmt.Println("done: capacity plan derived entirely from the recorded trace — no live deployments.")
	return nil
}
