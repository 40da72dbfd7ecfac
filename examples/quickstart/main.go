// Quickstart: the Caladrius workflow end to end in one file.
//
//  1. Deploy the paper's word-count topology on the embedded Heron
//     simulator and let it run to steady state.
//  2. Calibrate performance models for every component from the
//     metrics it emitted.
//  3. Ask the model what happens if traffic doubles, and what
//     parallelism change would absorb it — without deploying anything.
//  4. Verify the suggestion by actually deploying it on the simulator.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"caladrius/internal/core"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const currentRate = 18e6 // tuples/minute offered today
	const futureRate = 36e6  // the traffic spike we are planning for

	// --- 1. Deploy and observe. --------------------------------------
	fmt.Println("== 1. deploying word-count (spout=8, splitter=2, counter=3) at 18 M tuples/min")
	// Each deployment stabilises for 4 minutes before it is measured.
	const warmup = 4
	deployed, err := metrics.DeployWordCount(heron.WordCountOptions{
		SplitterP: 2, CounterP: 3, RatePerMinute: currentRate,
	}, warmup, 11)
	if err != nil {
		return err
	}

	// --- 2. Calibrate component models from observed metrics. --------
	fmt.Println("== 2. calibrating component models from 15 minutes of metrics")
	top := deployed.Topology
	models, _, err := core.CalibrateTopologyFromProviderReport(deployed.Provider, top, deployed.Start, deployed.AsOf, core.CalibrationOptions{Warmup: warmup})
	if err != nil {
		return err
	}
	for _, c := range top.Components() {
		m := models[c.Name]
		fmt.Printf("   %-8s α=%.3f  per-instance SP=%s  ψ=%.2e\n",
			c.Name, m.Instance.Alpha, fmtRate(m.Instance.SP), m.CPUPsi)
	}
	// Nothing saturated at 18 M/min, so the saturation points are still
	// unknown (SP = ∞ above). §V-B needs one observation in the
	// saturated interval per component — and in a chain under global
	// backpressure only the tightest component saturates, so each bolt
	// gets its own profiling run in which *it* is the bottleneck.
	fmt.Println("== 2b. profiling saturation: one run per bolt, each as the bottleneck")
	profile := func(splitterP, counterP int, rate float64, comp string) error {
		d, err := metrics.DeployWordCount(heron.WordCountOptions{SplitterP: splitterP, CounterP: counterP, RatePerMinute: rate}, warmup, 11)
		if err != nil {
			return err
		}
		run, _, err := core.CalibrateTopologyFromProviderReport(d.Provider, d.Topology, d.Start, d.AsOf, core.CalibrationOptions{Warmup: warmup})
		if err != nil {
			return err
		}
		models[comp], err = core.MergeCalibrations(models[comp], run[comp])
		return err
	}
	// Splitter bottleneck: p=2 splitter behind a wide counter, driven
	// past 2×SP.
	if err := profile(2, 6, 40e6, "splitter"); err != nil {
		return err
	}
	// Counter bottleneck: p=3 counter behind a wide splitter.
	if err := profile(6, 3, 35e6, "counter"); err != nil {
		return err
	}
	for _, c := range top.Components() {
		fmt.Printf("   %-8s per-instance SP now %s\n", c.Name, fmtRate(models[c.Name].Instance.SP))
	}

	// --- 3. Dry-run the future without deploying. ---------------------
	tm, err := core.NewTopologyModel(top, models)
	if err != nil {
		return err
	}
	fmt.Printf("== 3. dry-run: what happens at %s?\n", fmtRate(futureRate))
	pred, err := tm.Predict(nil, futureRate)
	if err != nil {
		return err
	}
	fmt.Printf("   current plan: backpressure risk %s (topology saturates at %s, bottleneck %s)\n",
		pred.Risk, fmtRate(pred.SaturationSource), pred.Bottleneck)

	plan, err := tm.SuggestParallelism(futureRate, 0.2)
	if err != nil {
		return err
	}
	for _, spout := range top.Spouts() {
		plan[spout] = top.Component(spout).Parallelism // spouts stay as deployed
	}
	fmt.Printf("   suggested plan: splitter=%d counter=%d\n", plan["splitter"], plan["counter"])
	pred2, err := tm.Predict(plan, futureRate)
	if err != nil {
		return err
	}
	fmt.Printf("   suggested plan risk: %s, predicted output %s, total CPU %.1f cores\n",
		pred2.Risk, fmtRate(pred2.SinkThroughput), pred2.TotalCPU)

	// --- 4. Verify by deploying the suggestion. -----------------------
	fmt.Println("== 4. verifying the suggestion on the simulator")
	verify, err := metrics.DeployWordCount(heron.WordCountOptions{
		SplitterP: plan["splitter"], CounterP: plan["counter"], RatePerMinute: futureRate,
	}, warmup, 8)
	if err != nil {
		return err
	}
	ss, err := verify.SteadyState("counter")
	if err != nil {
		return err
	}
	fmt.Printf("   measured sink throughput %s (predicted %s), backpressure %.0f ms/min\n",
		fmtRate(ss.Execute), fmtRate(pred2.SinkThroughput), ss.BackpressureMs)
	fmt.Println("done: the plan absorbed the doubled traffic on the first try.")
	return nil
}

func fmtRate(v float64) string {
	if v > 1e18 {
		return "∞"
	}
	return fmt.Sprintf("%.1f M/min", v/1e6)
}
