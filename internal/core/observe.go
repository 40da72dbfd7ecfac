package core

import (
	"math"
	"sort"
)

// The audit hook. Like StageTimer for tracing, RunRecorder keeps core
// free of any audit/telemetry dependency: the API tier passes the
// prediction audit ledger (internal/audit) through PredictMeasured and
// core notifies it of every completed model evaluation, together with
// the calibration snapshot the run was computed from.

// ComponentCalibration is an immutable snapshot of one component's
// calibrated parameters (α, SP, ST, ψ) as carried in audit records. SP
// and ST are pointers because an unsaturatable calibration has no
// finite saturation point (and JSON cannot carry +Inf).
type ComponentCalibration struct {
	Component   string   `json:"component"`
	Parallelism int      `json:"parallelism"`
	Alpha       float64  `json:"alpha"`
	SPTPM       *float64 `json:"sp_tpm,omitempty"`
	STTPM       *float64 `json:"st_tpm,omitempty"`
	CPUPsi      float64  `json:"cpu_psi_cores_per_tpm,omitempty"`
}

// ModelRun is one completed model evaluation as delivered to a
// RunRecorder: the inputs, the prediction and the calibration snapshot
// behind it. Request-scoped identity (topology name, run kind, trace
// id) is the caller's to add — core does not know it.
type ModelRun struct {
	// Parallelism is the evaluated per-component parallelism overrides
	// (nil = the topology's current values).
	Parallelism map[string]int
	// SourceRate is the evaluated topology source rate t₀ (tuples/min).
	SourceRate float64
	// Prediction is the completed evaluation.
	Prediction TopologyPrediction
	// Calibration is the model's shared calibration snapshot.
	Calibration []ComponentCalibration
	// Degraded is true when the model behind the run was calibrated in
	// degraded mode (widened or sparse observe window).
	Degraded bool
	// Cost is the run's measured resource footprint.
	Cost RunCost
}

// RunRecorder receives completed model runs — the audit-ledger hook.
type RunRecorder interface {
	RecordRun(run ModelRun)
}

// CalibrationSnapshot returns the model's per-component calibration
// snapshot, ordered by component name. The slice is computed once and
// shared by every ModelRun emitted from this model — callers must not
// mutate it.
func (tm *TopologyModel) CalibrationSnapshot() []ComponentCalibration {
	tm.calSnapOnce.Do(func() {
		snap := make([]ComponentCalibration, 0, len(tm.models))
		for name, m := range tm.models {
			cc := ComponentCalibration{
				Component:   name,
				Parallelism: m.Parallelism,
				Alpha:       m.Instance.Alpha,
				CPUPsi:      m.CPUPsi,
			}
			if !math.IsInf(m.Instance.SP, 1) {
				sp, st := m.Instance.SP, m.Instance.ST()
				cc.SPTPM, cc.STTPM = &sp, &st
			}
			snap = append(snap, cc)
		}
		sort.Slice(snap, func(i, j int) bool { return snap[i].Component < snap[j].Component })
		tm.calSnap = snap
	})
	return tm.calSnap
}

// CriticalPath returns the prediction's critical path: the path with
// the lowest saturation source rate (ties and unsaturatable topologies
// fall back to the first path). Zero value when the prediction holds
// no paths.
func (p TopologyPrediction) CriticalPath() PathPrediction {
	if len(p.Paths) == 0 {
		return PathPrediction{}
	}
	critical := p.Paths[0]
	for _, pp := range p.Paths[1:] {
		if pp.SaturationSource < critical.SaturationSource {
			critical = pp
		}
	}
	return critical
}
