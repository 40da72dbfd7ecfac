package core

import (
	"math"
	"sort"
)

// What the audit ledger (internal/audit) and the API need of a model
// run beyond the prediction itself: the calibration snapshot behind it,
// the critical path, and a saturation source JSON can carry.

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

// CalibrationSnapshot returns the model's per-component calibration
// snapshot, ordered by component name. The slice is computed once and
// shared by every audit record of this model — callers must not
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

// FiniteSaturation is a saturation source as the API and the audit
// ledger carry it. A topology or path that never saturates has
// saturation source +Inf (Eq. 13 has no finite solution), and JSON has
// no token for that; it goes out as the largest finite float — the
// registry's convention for the +Inf histogram bound — so "rate <
// saturation_source_tpm" still holds for every client.
func FiniteSaturation(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
