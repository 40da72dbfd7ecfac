package dhalion

import (
	"fmt"
	"maps"

	"caladrius/internal/core"
)

// CaladriusTuner is the model-driven counterpart of Scaler: each
// deployment is also a calibration opportunity, and the next
// configuration comes from the performance model's dry-run planning
// rather than a fixed reactive step. A deployment can only calibrate
// the saturation point of the component that actually bottlenecks it
// (§V-B needs a saturated observation, and only the binding component
// saturates), so severely under-provisioned topologies converge in a
// few rounds — one per distinct bottleneck — instead of Dhalion's one
// round per scaling increment.
//
// Each round's calibration merges into what earlier rounds learned
// through core.MergeCalibrations: α is averaged across rounds, ψ keeps
// the first non-zero slope, and a pinned SP — intrinsic to the
// component, not to the parallelism it was observed at — is kept.
type CaladriusTuner struct {
	// RatePerMinute is the offered source rate.
	RatePerMinute float64
	// SLOThroughputTPM is the required sink throughput.
	SLOThroughputTPM float64
}

// The tuner plans with tunerHeadroom and gives up after tunerMaxRounds.
const (
	tunerHeadroom  = 0.15
	tunerMaxRounds = 6
)

// Run tunes the word-count topology from the initial parallelisms.
func (c CaladriusTuner) Run(initial map[string]int) (Result, error) {
	if c.SLOThroughputTPM <= 0 || c.RatePerMinute <= 0 {
		return Result{}, fmt.Errorf("dhalion: caladrius tuner needs positive rate and SLO")
	}
	current := maps.Clone(initial)
	known := map[string]*core.ComponentModel{}
	res := Result{}
	for round := 0; round < tunerMaxRounds; round++ {
		m, d, err := deploy(c.RatePerMinute, current, tunerMeasureMinutes)
		if err != nil {
			return res, err
		}
		r := Round{Parallelisms: maps.Clone(current), Measurement: m}
		sloMet := m.SinkThroughputTPM >= c.SLOThroughputTPM*(1-sloTolerance)
		hasBp := m.BackpressureMsPerMin >= backpressureThresholdMs
		if sloMet && !hasBp {
			r.Diagnosis = "healthy: SLO met without backpressure"
			return res.stop(r, true)
		}
		if !hasBp {
			r.Diagnosis = "SLO missed without backpressure: source-limited"
			return res.stop(r, false)
		}
		// Calibrate what this deployment can teach us.
		models, _, err := core.CalibrateTopologyFromProviderReport(d.Provider, d.Topology, d.Start, d.AsOf, core.CalibrationOptions{Warmup: d.Warmup})
		if err != nil {
			return res, fmt.Errorf("dhalion: round %d calibrate: %w", round+1, err)
		}
		// Merge it into everything known so far, and plan from that.
		newlyPinned := ""
		for comp, cm := range models {
			prev := known[comp]
			if prev != nil {
				if cm, err = core.MergeCalibrations(prev, cm); err != nil {
					return res, err
				}
			}
			if cm.Instance.SaturatedObservable() && (prev == nil || !prev.Instance.SaturatedObservable()) {
				newlyPinned = comp
			}
			known[comp] = cm
		}
		tm, err := core.NewTopologyModel(d.Topology, known)
		if err != nil {
			return res, err
		}
		plan, err := tm.SuggestParallelism(c.RatePerMinute, tunerHeadroom)
		if err != nil {
			return res, err
		}
		for _, spout := range d.Topology.Spouts() {
			plan[spout] = current[spout] // spouts stay fixed, as in §V
		}
		// Components with unknown SP cannot be sized yet; keep their
		// current parallelism so the next bottleneck reveals itself.
		for comp, cm := range known {
			if !cm.Instance.SaturatedObservable() && plan[comp] < current[comp] {
				plan[comp] = current[comp]
			}
		}
		r.Diagnosis = fmt.Sprintf("model plan → splitter=%d counter=%d", plan["splitter"], plan["counter"])
		if newlyPinned != "" {
			r.Diagnosis = fmt.Sprintf("calibrated %s SP; %s", newlyPinned, r.Diagnosis)
		}
		res.Rounds = append(res.Rounds, r)
		current = plan
	}
	res.Reason = "round budget exhausted"
	res.FinalParallelisms = maps.Clone(current)
	return res, nil
}
