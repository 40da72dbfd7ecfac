package dhalion

import (
	"fmt"
	"maps"
	"math"

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

// knownModel accumulates per-component knowledge across rounds. α and
// ψ refresh every round; the per-instance SP — which is intrinsic to
// the component, not to the parallelism it was observed at — is kept
// once a saturated observation pins it.
type knownModel struct {
	alpha, psi float64
	sp         float64 // +Inf until observed
	shares     []float64
	sharesP    int
}

// Run tunes the word-count topology from the initial parallelisms.
func (c CaladriusTuner) Run(initial map[string]int) (Result, error) {
	if c.SLOThroughputTPM <= 0 || c.RatePerMinute <= 0 {
		return Result{}, fmt.Errorf("dhalion: caladrius tuner needs positive rate and SLO")
	}
	current := maps.Clone(initial)
	known := map[string]*knownModel{}
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
		models, err := core.CalibrateTopologyFromProvider(d.Provider, d.Topology, d.Start, d.AsOf, core.CalibrationOptions{Warmup: d.Warmup})
		if err != nil {
			return res, fmt.Errorf("dhalion: round %d calibrate: %w", round+1, err)
		}
		newlyPinned := ""
		for comp, cm := range models {
			k, ok := known[comp]
			if !ok {
				k = &knownModel{sp: math.Inf(1)}
				known[comp] = k
			}
			k.alpha = cm.Instance.Alpha
			if cm.CPUPsi > 0 {
				k.psi = cm.CPUPsi
			}
			if cm.Instance.SaturatedObservable() {
				if math.IsInf(k.sp, 1) {
					newlyPinned = comp
				}
				k.sp = cm.Instance.SP
			}
			if len(cm.InputShares) > 0 {
				k.shares, k.sharesP = cm.InputShares, cm.Parallelism
			}
		}
		// Plan the next round from everything known so far.
		composite := map[string]*core.ComponentModel{}
		for comp, k := range known {
			cm := &core.ComponentModel{
				Component:   comp,
				Parallelism: current[comp],
				Instance:    core.InstanceModel{Alpha: k.alpha, SP: k.sp},
				CPUPsi:      k.psi,
			}
			if k.sharesP == current[comp] {
				cm.InputShares = k.shares
			}
			composite[comp] = cm
		}
		tm, err := core.NewTopologyModel(d.Topology, composite)
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
		for comp, k := range known {
			if math.IsInf(k.sp, 1) && plan[comp] < current[comp] {
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
