// Package core implements Caladrius' topology-performance models — the
// paper's primary contribution (§IV-B). It provides:
//
//   - the single-instance throughput model of Fig. 3 / Equations 1–5:
//     output rate min(α·t, ST) with saturation point SP and saturation
//     throughput ST = α·SP;
//   - the component model of Equations 6–11: summing instances under
//     shuffle and fields groupings, scaling a fitted curve to a new
//     parallelism (Eq. 9), and propagating observed per-instance bias
//     under a traffic change (Eq. 11);
//   - the topology model of Equations 12–14: one pass over the DAG in
//     topological order sums each component's inbound streams, locates
//     the topology saturation point where the first component
//     saturates, and classifies backpressure risk; every spout→sink
//     path is reported from that pass;
//   - the CPU-load model of §V-E: ψ = CPU / input-rate per component,
//     composed with the throughput model to predict CPU under a new
//     parallelism or source rate;
//   - calibration of all of the above from observed metrics windows;
//   - a dry-run planner that evaluates proposed parallelism changes
//     without deployment (Heron's `update --dry-run`).
//
// Throughput units are tuples per minute throughout, matching the
// paper's figures.
package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotCalibrated is returned when a model is used before it has the
// observations it needs.
var ErrNotCalibrated = errors.New("core: model not calibrated")

// InstanceModel is the single-instance throughput model of Fig. 3.
type InstanceModel struct {
	// Alpha is the I/O coefficient: output tuples per input tuple
	// (Eq. 1). For multi-output instances this is the summed
	// coefficient over output streams (Eq. 4–5 reduce to a sum for
	// rate purposes).
	Alpha float64
	// SP is the saturation point: the input rate (tuples/minute) above
	// which the instance saturates. math.Inf(1) when saturation was
	// never observed.
	SP float64
}

// ST returns the saturation throughput ST = α·SP (Fig. 3).
func (m InstanceModel) ST() float64 {
	if math.IsInf(m.SP, 1) {
		return math.Inf(1)
	}
	return m.Alpha * m.SP
}

// Input returns the instance's input (processed) rate for a given
// source rate: the identity below SP, clamped at SP above it.
func (m InstanceModel) Input(sourceRate float64) float64 {
	return math.Min(sourceRate, m.SP)
}

// Output implements Eq. 2: T(t) = min(α·t, ST).
func (m InstanceModel) Output(sourceRate float64) float64 {
	return math.Min(m.Alpha*sourceRate, m.ST())
}

// OutputMulti implements Eq. 3 for m input streams: each stream's
// contribution is clamped independently.
func (m InstanceModel) OutputMulti(sourceRates []float64) float64 {
	var out float64
	for _, t := range sourceRates {
		out += m.Output(t)
	}
	if st := m.ST(); out > st {
		out = st
	}
	return out
}

// Inverse returns the input rate that yields the given output rate in
// the linear regime (T⁻¹). Output rates at or above ST map to SP.
func (m InstanceModel) Inverse(outputRate float64) float64 {
	if m.Alpha <= 0 {
		return math.Inf(1)
	}
	if st := m.ST(); !math.IsInf(st, 1) && outputRate >= st {
		return m.SP
	}
	return outputRate / m.Alpha
}

// Saturated reports whether the given source rate drives the instance
// into backpressure.
func (m InstanceModel) Saturated(sourceRate float64) bool {
	return sourceRate >= m.SP
}

// SaturatedObservable reports whether the calibration data included a
// saturated observation, i.e. whether SP is finite. Models without it
// are only valid in the linear regime.
func (m InstanceModel) SaturatedObservable() bool {
	return !math.IsInf(m.SP, 1)
}

// ComponentModel models one component: the per-instance model plus the
// parallelism and per-instance input shares observed at calibration
// time.
type ComponentModel struct {
	// Component is the component name.
	Component string
	// Parallelism is the parallelism at which the model was calibrated
	// (the paper's p for Eq. 9 scaling).
	Parallelism int
	// Instance is the per-instance throughput model.
	Instance InstanceModel
	// InputShares is the observed fraction of component input arriving
	// at each instance (length Parallelism, sums to 1). Uniform shares
	// indicate shuffle grouping or an unbiased fields-grouped dataset;
	// skew records fields-grouping bias (§IV-B2b). Nil means uniform.
	InputShares []float64
	// CPUPsi is the CPU-load slope ψ: cores per (tuple/minute) of
	// component input rate (§V-E). Zero when CPU was not calibrated.
	CPUPsi float64
	// StreamAlphas splits the aggregate I/O coefficient over the
	// component's outbound streams, keyed "streamName->destination".
	// The values sum to Instance.Alpha. Nil when per-stream emit
	// metrics were unavailable at calibration; every outbound edge then
	// carries the aggregate coefficient (overestimating a fan-out's
	// branch rates — linear chains are unaffected).
	StreamAlphas map[string]float64
}

// StreamAlphaKey builds the StreamAlphas map key for a stream.
func StreamAlphaKey(streamName, destination string) string {
	return streamName + "->" + destination
}

// AlphaTowards returns the summed I/O coefficient of the given
// outbound stream keys (e.g. every stream on a path edge), falling
// back to the aggregate coefficient when per-stream data is absent.
func (c *ComponentModel) AlphaTowards(keys []string) float64 {
	if len(c.StreamAlphas) == 0 {
		return c.Instance.Alpha
	}
	var a float64
	for _, k := range keys {
		a += c.StreamAlphas[k]
	}
	return a
}

// maxShare is the largest per-instance input share at parallelism p:
// the observed shares at the calibrated parallelism, uniform 1/p at any
// other, and 0 when p < 1. Under a different parallelism the
// fields-grouping routing cannot be predicted (hash modulo changes);
// per the paper we assume the load-balanced case (Eq. 9) unless a
// custom model is plugged in.
func (c *ComponentModel) maxShare(p int) float64 {
	if p == c.Parallelism && len(c.InputShares) == p {
		m := 0.0
		for _, w := range c.InputShares {
			if w > m {
				m = w
			}
		}
		return m
	}
	if p < 1 {
		return 0
	}
	return 1 / float64(p)
}

// Input is the component input throughput at parallelism p for a given
// component source rate (Eqs. 6–7, adjusted for Heron's backpressure
// semantics).
//
// Equation 11 as written clamps each instance independently, which
// implies a partially-saturated regime where hot instances sit at
// their ST while cold instances keep growing with β. Under Heron's
// *global* backpressure — the mechanism §IV-B1 itself describes — that
// regime is unreachable: the moment the hottest instance saturates,
// the spouts are stopped and every instance's inflow throttles
// together, so the whole component's input clamps at the rate where
// the hottest instance hits its SP (SaturationSource). The simulator
// confirms this (see TestBiasedFieldsGroupingModel): a 75/25-biased
// component clamps at SP/0.75, not at the clamped sum. Bias therefore
// reduces effective capacity, which is the practical content of
// Eq. 11.
func (c *ComponentModel) Input(p int, sourceRate float64) float64 {
	if p < 1 {
		return 0
	}
	return math.Min(sourceRate, c.SaturationSource(p))
}

// Output is the component output rate at parallelism p (Eqs. 7/9/11
// under global backpressure): α times the clamped input. At the
// calibrated parallelism the observed input shares determine the
// clamp; at any other parallelism the shares are uniform (Eq. 9
// scaling — fields-grouping routing under a different modulo cannot be
// predicted, §IV-B2b).
func (c *ComponentModel) Output(p int, sourceRate float64) float64 {
	return c.Instance.Alpha * c.Input(p, sourceRate)
}

// SaturationSource returns the component source rate (tuples/minute)
// at which the first instance saturates, given parallelism p. With
// uniform shares this is p·SP; with biased shares the hottest instance
// saturates first.
func (c *ComponentModel) SaturationSource(p int) float64 {
	if math.IsInf(c.Instance.SP, 1) {
		return math.Inf(1)
	}
	maxShare := c.maxShare(p)
	if maxShare == 0 {
		return math.Inf(1)
	}
	return c.Instance.SP / maxShare
}

// MaxOutput returns the component's saturation throughput at
// parallelism p: the output at the hottest instance's saturation. With
// uniform shares this is p·ST; biased shares reduce effective capacity
// because global backpressure throttles the whole component when the
// hot instance saturates.
func (c *ComponentModel) MaxOutput(p int) float64 {
	if math.IsInf(c.Instance.SP, 1) {
		return math.Inf(1)
	}
	return c.Instance.Alpha * c.SaturationSource(p)
}

// InverseOutput returns the component source rate required to produce
// the given component output rate at parallelism p (the T⁻¹ of
// Eq. 13). Outputs at or above the component maximum map to the
// saturation source rate.
func (c *ComponentModel) InverseOutput(p int, outputRate float64) float64 {
	if c.Instance.Alpha <= 0 {
		return math.Inf(1)
	}
	maxOut := c.MaxOutput(p)
	if !math.IsInf(maxOut, 1) && outputRate >= maxOut {
		return c.SaturationSource(p)
	}
	// In the linear regime biased shares still sum to the same total:
	// Σ α·w_i·t = α·t, so the inverse is α⁻¹ regardless of shares.
	return outputRate / c.Instance.Alpha
}

// CPU predicts the component CPU load in cores at parallelism p and
// component source rate, per §V-E: the throughput model yields the
// input rate, which ψ converts to cores.
func (c *ComponentModel) CPU(p int, sourceRate float64) (float64, error) {
	if c.CPUPsi == 0 {
		return 0, fmt.Errorf("%w: component %q has no CPU calibration", ErrNotCalibrated, c.Component)
	}
	return c.CPUPsi * c.Input(p, sourceRate), nil
}

// Validate checks internal consistency.
func (c *ComponentModel) Validate() error {
	if c.Component == "" {
		return errors.New("core: component model without name")
	}
	if c.Parallelism < 1 {
		return fmt.Errorf("core: component %q parallelism %d", c.Component, c.Parallelism)
	}
	if c.Instance.Alpha < 0 {
		return fmt.Errorf("core: component %q negative alpha %g", c.Component, c.Instance.Alpha)
	}
	if c.Instance.SP <= 0 {
		return fmt.Errorf("core: component %q non-positive SP %g", c.Component, c.Instance.SP)
	}
	if len(c.StreamAlphas) > 0 {
		var sum float64
		for k, a := range c.StreamAlphas {
			if a < 0 {
				return fmt.Errorf("core: component %q negative stream alpha %g on %s", c.Component, a, k)
			}
			sum += a
		}
		if math.Abs(sum-c.Instance.Alpha) > 1e-6*(1+c.Instance.Alpha) {
			return fmt.Errorf("core: component %q stream alphas sum to %g, aggregate %g", c.Component, sum, c.Instance.Alpha)
		}
	}
	if len(c.InputShares) > 0 {
		if len(c.InputShares) != c.Parallelism {
			return fmt.Errorf("core: component %q has %d shares for parallelism %d", c.Component, len(c.InputShares), c.Parallelism)
		}
		var sum float64
		for _, w := range c.InputShares {
			if w < 0 {
				return fmt.Errorf("core: component %q negative share %g", c.Component, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("core: component %q shares sum to %g", c.Component, sum)
		}
	}
	return nil
}
