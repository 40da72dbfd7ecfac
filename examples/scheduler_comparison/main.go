// Scheduler comparison: the paper's "improved scheduler selection" use
// case. Several proposed topology configurations — produced by
// different schedulers/packing algorithms — are assessed in parallel
// against the performance model, so the best one is known before
// anything is deployed.
//
// The example compares:
//   - packing plans from two schedulers (Heron-style round-robin vs
//     first-fit-decreasing bin packing) on container count and
//     cross-container traffic (via the physical topology graph), and
//   - four candidate parallelism configurations, evaluated
//     concurrently against the calibrated model at the target rate.
//
// Run with: go run ./examples/scheduler_comparison
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"caladrius/internal/core"
	"caladrius/internal/graph"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const targetRate = 45e6 // tuples/minute the job must sustain

	// --- Calibrate models once, from two profiling runs. -------------
	fmt.Println("== calibrating word-count models (one linear run, one saturated run per bolt)")
	models, err := calibrate()
	if err != nil {
		return err
	}

	// --- Compare packing plans produced by two schedulers. ------------
	top, err := heron.WordCountTopology(8, 4, 5)
	if err != nil {
		return err
	}
	rr, err := topology.RoundRobinPack(top, 4)
	if err != nil {
		return err
	}
	ffd, err := topology.FirstFitDecreasingPack(top, 6, 12*1024)
	if err != nil {
		return err
	}
	fmt.Println("== scheduler packing plans for (spout=8, splitter=4, counter=5):")
	for _, packed := range []struct {
		name string
		plan *topology.PackingPlan
	}{{"round-robin", rr}, {"first-fit-decreasing", ffd}} {
		name, plan := packed.name, packed.plan
		remote := graph.RemoteTransferFraction(top, plan)
		var worst float64
		for _, f := range remote {
			if f > worst {
				worst = f
			}
		}
		phys, err := graph.BuildPhysical(top, plan)
		if err != nil {
			return err
		}
		fmt.Printf("   %-22s containers=%d graph: %d vertices / %d edges, worst cross-container stream fraction %.0f%%\n",
			name, len(plan.Containers), phys.VertexCount(), phys.EdgeCount(), 100*worst)
	}

	// --- Evaluate candidate configurations in parallel. ---------------
	tm, err := core.NewTopologyModel(top, models)
	if err != nil {
		return err
	}
	candidates := []map[string]int{
		{"splitter": 4, "counter": 4},
		{"splitter": 5, "counter": 5},
		{"splitter": 5, "counter": 6},
		{"splitter": 6, "counter": 7},
	}
	type verdict struct {
		plan map[string]int
		pred core.TopologyPrediction
		err  error
	}
	results := make([]verdict, len(candidates))
	var wg sync.WaitGroup
	for i, cand := range candidates {
		wg.Add(1)
		go func(i int, cand map[string]int) {
			defer wg.Done()
			pred, err := tm.Predict(cand, targetRate)
			results[i] = verdict{plan: cand, pred: pred, err: err}
		}(i, cand)
	}
	wg.Wait()

	fmt.Printf("== candidate configurations at %.0f M tuples/min (evaluated in parallel):\n", targetRate/1e6)
	var safe []verdict
	for _, v := range results {
		if v.err != nil {
			return v.err
		}
		fmt.Printf("   splitter=%d counter=%d → risk %-4s  saturates at %6.1f M  CPU %.1f cores\n",
			v.plan["splitter"], v.plan["counter"], v.pred.Risk, v.pred.SaturationSource/1e6, v.pred.TotalCPU)
		if v.pred.Risk == core.RiskLow {
			safe = append(safe, v)
		}
	}
	if len(safe) == 0 {
		return fmt.Errorf("no candidate met the target safely")
	}
	sort.Slice(safe, func(i, j int) bool { return safe[i].pred.TotalCPU < safe[j].pred.TotalCPU })
	best := safe[0]
	fmt.Printf("done: cheapest safe plan is splitter=%d counter=%d (%.1f cores) — chosen without a single deployment.\n",
		best.plan["splitter"], best.plan["counter"], best.pred.TotalCPU)
	return nil
}

// calibrate builds saturation-complete models using one
// splitter-bottleneck run and one counter-bottleneck run. The
// topology-aware calibration discards backpressure a component merely
// inherited from a downstream bottleneck, so each run pins exactly one
// component's saturation point.
func calibrate() (map[string]*core.ComponentModel, error) {
	models := map[string]*core.ComponentModel{}
	runs := []struct {
		splitterP, counterP int
		rate                float64
	}{
		{2, 6, 40e6}, // splitter saturates
		{6, 3, 35e6}, // counter saturates
	}
	for _, r := range runs {
		d, err := metrics.DeployWordCount(heron.WordCountOptions{SplitterP: r.splitterP, CounterP: r.counterP, RatePerMinute: r.rate}, 4, 8)
		if err != nil {
			return nil, err
		}
		runModels, _, err := core.CalibrateTopologyFromProviderReport(d.Provider, d.Topology, d.Start, d.AsOf, core.CalibrationOptions{Warmup: d.Warmup})
		if err != nil {
			return nil, err
		}
		for comp, m := range runModels {
			if prev, ok := models[comp]; ok {
				if m, err = core.MergeCalibrations(prev, m); err != nil {
					return nil, err
				}
			}
			models[comp] = m
		}
	}
	return models, nil
}
