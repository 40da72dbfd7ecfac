package core

import (
	"fmt"
	"math"
	"sync"

	"caladrius/internal/topology"
)

// Risk is the backpressure risk classification of Eq. 14.
type Risk string

// Risk levels.
const (
	RiskLow  Risk = "low"
	RiskHigh Risk = "high"
)

// ComponentPrediction is the modelled state of one component on a path
// under a proposed configuration.
type ComponentPrediction struct {
	Component   string  `json:"component"`
	Parallelism int     `json:"parallelism"`
	SourceRate  float64 `json:"source_rate_tpm"`
	InputRate   float64 `json:"input_rate_tpm"`
	OutputRate  float64 `json:"output_rate_tpm"`
	Saturated   bool    `json:"saturated"`
	// CPULoad is the predicted component CPU in cores; 0 when the
	// component has no CPU calibration.
	CPULoad float64 `json:"cpu_load_cores"`
}

// PathPrediction is the result of chaining component models along one
// spout→sink path (Eq. 12–14).
type PathPrediction struct {
	Path []string `json:"path"`
	// OutputRate is t_cp, the path's output throughput at the given
	// source rate (Eq. 12).
	OutputRate float64 `json:"output_rate_tpm"`
	// SinkThroughput is the processing (input) throughput of the
	// path's final component — the quantity the paper plots as
	// "topology output throughput" in Fig. 10, since sinks emit
	// nothing downstream.
	SinkThroughput float64 `json:"sink_throughput_tpm"`
	// SaturationSource is t′₀, the topology source rate at which this
	// path first saturates (Eq. 13); +Inf when nothing on the path has
	// a finite saturation point.
	SaturationSource float64 `json:"saturation_source_tpm"`
	// Bottleneck names the component that saturates first.
	Bottleneck string `json:"bottleneck"`
	// Risk classifies backpressure risk at the given source rate
	// (Eq. 14).
	Risk Risk `json:"backpressure_risk"`
	// Components holds per-component detail in path order.
	Components []ComponentPrediction `json:"components"`
}

// TopologyModel composes calibrated component models over a topology's
// paths.
type TopologyModel struct {
	topo   *topology.Topology
	models map[string]*ComponentModel
	// RiskMargin widens the high-risk band of Eq. 14: the risk is high
	// when t₀ ≥ (1 − RiskMargin)·t′₀. Default 0.1.
	RiskMargin float64
	// Degraded marks a low-confidence model: its calibration needed a
	// widened observe window or still ran on sparse windows (see
	// CalibrateTopologyFromProviderReport). Every audited run carries
	// the flag so degraded-era predictions can be discounted.
	Degraded bool

	// calSnap memoizes CalibrationSnapshot (see observe.go): the
	// snapshot is immutable and shared by every audit record emitted
	// from this model.
	calSnapOnce sync.Once
	calSnap     []ComponentCalibration
}

// NewTopologyModel validates that every component has a model and
// builds the composite.
func NewTopologyModel(topo *topology.Topology, models map[string]*ComponentModel) (*TopologyModel, error) {
	if topo == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	for _, name := range topo.ComponentNames() {
		m, ok := models[name]
		if !ok {
			return nil, fmt.Errorf("%w: component %q has no model", ErrNotCalibrated, name)
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	return &TopologyModel{topo: topo, models: models, RiskMargin: 0.1}, nil
}

// Component returns the model of one component.
func (tm *TopologyModel) Component(name string) (*ComponentModel, bool) {
	m, ok := tm.models[name]
	return m, ok
}

// Topology returns the modelled topology.
func (tm *TopologyModel) Topology() *topology.Topology { return tm.topo }

// parallelismOf resolves a component's parallelism under the proposed
// overrides.
func (tm *TopologyModel) parallelismOf(name string, overrides map[string]int) int {
	if p, ok := overrides[name]; ok {
		return p
	}
	return tm.topo.Component(name).Parallelism
}

// PredictPath chains component models along the given component path
// (Eq. 12), locates its saturation point by forward accumulation of
// the inverse chain (Eq. 13) and classifies backpressure risk
// (Eq. 14). parallelisms overrides component parallelism (nil = the
// topology's current values); sourceRate is the topology source
// throughput t₀ in tuples/minute.
func (tm *TopologyModel) PredictPath(path []string, parallelisms map[string]int, sourceRate float64) (PathPrediction, error) {
	if len(path) == 0 {
		return PathPrediction{}, fmt.Errorf("core: empty path")
	}
	if sourceRate < 0 {
		return PathPrediction{}, fmt.Errorf("core: negative source rate %g", sourceRate)
	}
	pred := PathPrediction{Path: append([]string(nil), path...), SaturationSource: math.Inf(1)}
	rate := sourceRate
	gain := 1.0 // product of upstream edge α: maps t₀ to this component's source rate
	for i, name := range path {
		m, ok := tm.models[name]
		if !ok {
			return PathPrediction{}, fmt.Errorf("%w: component %q has no model", ErrNotCalibrated, name)
		}
		p := tm.parallelismOf(name, parallelisms)
		if p < 1 {
			return PathPrediction{}, fmt.Errorf("core: component %q parallelism %d", name, p)
		}
		in := m.Input(p, rate)
		out := m.Output(p, rate)
		sat := m.SaturationSource(p)
		cp := ComponentPrediction{
			Component:   name,
			Parallelism: p,
			SourceRate:  rate,
			InputRate:   in,
			OutputRate:  out,
			Saturated:   rate >= sat,
		}
		if m.CPUPsi > 0 {
			cp.CPULoad = m.CPUPsi * in
		}
		pred.Components = append(pred.Components, cp)

		// Eq. 13 by forward accumulation: this component saturates when
		// t₀·gain ≥ sat, i.e. t₀ ≥ sat/gain.
		if gain > 0 && !math.IsInf(sat, 1) {
			if t0sat := sat / gain; t0sat < pred.SaturationSource {
				pred.SaturationSource = t0sat
				pred.Bottleneck = name
			}
		}
		// Follow the path edge with the stream-specific coefficient:
		// on fan-out components the aggregate α overestimates what one
		// branch receives (Eqs. 4–5).
		if i+1 < len(path) {
			edgeAlpha := tm.edgeAlpha(m, name, path[i+1])
			rate = edgeAlpha * in
			gain *= edgeAlpha
		} else {
			rate = out
		}
	}
	pred.OutputRate = rate
	pred.SinkThroughput = pred.Components[len(pred.Components)-1].InputRate
	pred.Risk = tm.classifyRisk(sourceRate, pred.SaturationSource)
	return pred, nil
}

// edgeAlpha is the I/O coefficient from component name towards its
// path successor: the per-stream coefficients of all streams on the
// edge when calibrated, otherwise the aggregate coefficient.
func (tm *TopologyModel) edgeAlpha(m *ComponentModel, name, next string) float64 {
	var keys []string
	for _, s := range tm.topo.Outbound(name) {
		if s.To == next {
			keys = append(keys, StreamAlphaKey(s.Name, s.To))
		}
	}
	return m.AlphaTowards(keys)
}

func (tm *TopologyModel) classifyRisk(t0, t0sat float64) Risk {
	if math.IsInf(t0sat, 1) {
		return RiskLow
	}
	margin := tm.RiskMargin
	if margin < 0 {
		margin = 0
	}
	if t0 >= (1-margin)*t0sat {
		return RiskHigh
	}
	return RiskLow
}

// TopologyPrediction aggregates path predictions for a whole topology
// under one proposed configuration.
type TopologyPrediction struct {
	// SourceRate is the evaluated topology source throughput t₀.
	SourceRate float64 `json:"source_rate_tpm"`
	// Paths holds one prediction per spout→sink path; when the
	// critical path is ambiguous all candidates are reported, as
	// §IV-B3 prescribes.
	Paths []PathPrediction `json:"paths"`
	// OutputRate is the output throughput of the critical path (the
	// path with the lowest saturation source; ties and unsaturatable
	// topologies fall back to the first path).
	OutputRate float64 `json:"output_rate_tpm"`
	// SinkThroughput is the critical path's sink processing
	// throughput — the paper's "topology output" metric.
	SinkThroughput float64 `json:"sink_throughput_tpm"`
	// SaturationSource is the topology saturation point t′₀: the
	// minimum over paths.
	SaturationSource float64 `json:"saturation_source_tpm"`
	// Bottleneck names the component limiting the topology.
	Bottleneck string `json:"bottleneck"`
	// Risk is the topology backpressure risk at SourceRate.
	Risk Risk `json:"backpressure_risk"`
	// TotalCPU sums predicted component CPU loads (cores) over all
	// CPU-calibrated components.
	TotalCPU float64 `json:"total_cpu_cores"`
}

// Predict evaluates the topology at the given source rate under
// optional parallelism overrides, modelling every spout→sink path.
//
// Multi-path topologies are evaluated in two passes, reflecting global
// backpressure: the first pass locates the topology saturation point
// t′₀ over all paths; the second evaluates every path at the effective
// source rate min(t₀, t′₀), because once any path's component
// saturates, the spouts are stopped and *all* paths throttle together.
// Risk is still classified against the requested t₀.
func (tm *TopologyModel) Predict(parallelisms map[string]int, sourceRate float64) (TopologyPrediction, error) {
	paths := tm.topo.Paths()
	if len(paths) == 0 {
		return TopologyPrediction{}, fmt.Errorf("core: topology %q has no paths", tm.topo.Name())
	}
	out := TopologyPrediction{SourceRate: sourceRate, SaturationSource: math.Inf(1)}
	for _, path := range paths {
		pp, err := tm.PredictPath(path, parallelisms, sourceRate)
		if err != nil {
			return TopologyPrediction{}, err
		}
		if pp.SaturationSource < out.SaturationSource {
			out.SaturationSource = pp.SaturationSource
			out.Bottleneck = pp.Bottleneck
		}
	}
	effective := sourceRate
	if out.SaturationSource < effective {
		effective = out.SaturationSource
	}
	seen := map[string]float64{}
	for _, path := range paths {
		pp, err := tm.PredictPath(path, parallelisms, effective)
		if err != nil {
			return TopologyPrediction{}, err
		}
		// Keep the risk/saturation bookkeeping of the requested rate.
		pp.Risk = tm.classifyRisk(sourceRate, pp.SaturationSource)
		out.Paths = append(out.Paths, pp)
		// CPU: sum each component once even if it appears on several
		// paths; a component's input rate is path-dependent only for
		// multi-input components, where the highest estimate is kept
		// (conservative).
		for _, cp := range pp.Components {
			if cp.CPULoad > seen[cp.Component] {
				seen[cp.Component] = cp.CPULoad
			}
		}
	}
	critical := out.Paths[0]
	for _, pp := range out.Paths[1:] {
		if pp.SaturationSource < critical.SaturationSource {
			critical = pp
		}
	}
	out.OutputRate = critical.OutputRate
	out.SinkThroughput = critical.SinkThroughput
	out.Risk = tm.classifyRisk(sourceRate, out.SaturationSource)
	// Sum in path order, not map order, so the total's bits repeat.
	for _, pp := range out.Paths {
		for _, cp := range pp.Components {
			if cpu, ok := seen[cp.Component]; ok {
				out.TotalCPU += cpu
				delete(seen, cp.Component)
			}
		}
	}
	return out, nil
}

// SuggestParallelism proposes the minimal per-component parallelisms
// that keep every component below saturation at the given topology
// source rate with the given headroom fraction (e.g. 0.2 keeps each
// component at ≤ 1/1.2 of its saturation input). This is the planning
// primitive that lets Caladrius replace Dhalion's multi-round scaling
// with a single dry-run iteration.
func (tm *TopologyModel) SuggestParallelism(sourceRate, headroom float64) (map[string]int, error) {
	if sourceRate < 0 {
		return nil, fmt.Errorf("core: negative source rate %g", sourceRate)
	}
	if headroom < 0 {
		return nil, fmt.Errorf("core: negative headroom %g", headroom)
	}
	// Component source rates: propagate sourceRate through the DAG in
	// topological order assuming the linear regime (the suggestion
	// keeps everything unsaturated, making the assumption
	// self-consistent).
	inRate := map[string]float64{}
	for _, spout := range tm.topo.Spouts() {
		inRate[spout] += sourceRate / float64(len(tm.topo.Spouts()))
	}
	result := map[string]int{}
	for _, name := range tm.topo.ComponentNames() {
		m, ok := tm.models[name]
		if !ok {
			return nil, fmt.Errorf("%w: component %q has no model", ErrNotCalibrated, name)
		}
		rate := inRate[name]
		p := 1
		if !math.IsInf(m.Instance.SP, 1) && m.Instance.SP > 0 {
			p = int(math.Ceil(rate * (1 + headroom) / m.Instance.SP))
			if p < 1 {
				p = 1
			}
		}
		result[name] = p
		outs := tm.topo.Outbound(name)
		for _, s := range outs {
			var streamAlpha float64
			if len(m.StreamAlphas) > 0 {
				streamAlpha = m.StreamAlphas[StreamAlphaKey(s.Name, s.To)]
			} else {
				// Without per-stream calibration, split the aggregate
				// α evenly across outbound streams.
				streamAlpha = m.Instance.Alpha / float64(len(outs))
			}
			inRate[s.To] += streamAlpha * rate
		}
	}
	return result, nil
}
