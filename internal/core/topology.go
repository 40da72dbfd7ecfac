package core

import (
	"fmt"
	"math"
	"slices"
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

// ComponentPrediction is the modelled state of one component under a
// proposed configuration. A component on several paths has the same
// row on each: its rates total every inbound stream.
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

// PathPrediction reports one spout→sink path of the topology
// prediction (Eq. 12–14).
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
	// SaturationSource is t′₀, the topology source rate at which a
	// component on this path first saturates (Eq. 13); +Inf when
	// nothing on the path has a finite saturation point.
	SaturationSource float64 `json:"saturation_source_tpm"`
	// Bottleneck names the component that saturates first.
	Bottleneck string `json:"bottleneck"`
	// Risk classifies backpressure risk at the given source rate
	// (Eq. 14).
	Risk Risk `json:"backpressure_risk"`
	// Components holds per-component detail in path order.
	Components []ComponentPrediction `json:"components"`
}

// riskMargin widens the high-risk band of Eq. 14: the risk is high when
// t₀ ≥ (1 − riskMargin)·t′₀.
const riskMargin = 0.1

// TopologyModel composes calibrated component models over a topology's
// DAG.
type TopologyModel struct {
	topo   *topology.Topology
	models map[string]*ComponentModel
	// nodes holds every component in topological order and paths every
	// spout→sink path as indices into nodes; both are fixed at
	// construction, as the topology and its models are.
	nodes []node
	paths [][]int
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

// node is one component's place in the rate propagation.
type node struct {
	name        string
	model       *ComponentModel
	parallelism int // the topology's own
	spout       bool
	// gain is gᵢ, the component's source rate per unit of t₀ in the
	// linear regime: 1/(number of spouts) for a spout, since the spouts
	// share t₀ evenly, and otherwise the sum over inbound edges of α
	// times the upstream gain.
	gain float64
	out  []edge
}

// edge carries α times its upstream component's input rate to a
// downstream component; α sums every stream between the two
// (AlphaTowards).
type edge struct {
	to    int
	alpha float64
}

// NewTopologyModel validates that every component has a model and
// builds the composite.
func NewTopologyModel(topo *topology.Topology, models map[string]*ComponentModel) (*TopologyModel, error) {
	if topo == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	names := topo.ComponentNames()
	index := make(map[string]int, len(names))
	tm := &TopologyModel{topo: topo, models: models, nodes: make([]node, len(names))}
	spouts := float64(len(topo.Spouts()))
	for i, name := range names {
		m, ok := models[name]
		if !ok {
			return nil, fmt.Errorf("%w: component %q has no model", ErrNotCalibrated, name)
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		c := topo.Component(name)
		tm.nodes[i] = node{name: name, model: m, parallelism: c.Parallelism, spout: c.Kind == topology.Spout}
		index[name] = i
	}
	for i := range tm.nodes {
		n := &tm.nodes[i]
		if n.spout {
			n.gain = 1 / spouts
		}
		// Group the outbound streams by destination, in declaration
		// order, and sum their coefficients: on fan-out components the
		// aggregate α overestimates what one branch receives (Eqs. 4–5).
		var keys [][]string
		for _, s := range topo.Outbound(n.name) {
			to := index[s.To]
			j := slices.IndexFunc(n.out, func(e edge) bool { return e.to == to })
			if j < 0 {
				j = len(n.out)
				n.out = append(n.out, edge{to: to})
				keys = append(keys, nil)
			}
			keys[j] = append(keys[j], StreamAlphaKey(s.Name, s.To))
		}
		for j := range n.out {
			e := &n.out[j]
			e.alpha = n.model.AlphaTowards(keys[j])
			tm.nodes[e.to].gain += e.alpha * n.gain
		}
	}
	for _, path := range topo.Paths() {
		nodes := make([]int, len(path))
		for j, name := range path {
			nodes[j] = index[name]
		}
		tm.paths = append(tm.paths, nodes)
	}
	return tm, nil
}

// Component returns the model of one component.
func (tm *TopologyModel) Component(name string) (*ComponentModel, bool) {
	m, ok := tm.models[name]
	return m, ok
}

// Topology returns the modelled topology.
func (tm *TopologyModel) Topology() *topology.Topology { return tm.topo }

func classifyRisk(t0, t0sat float64) Risk {
	if !math.IsInf(t0sat, 1) && t0 >= (1-riskMargin)*t0sat {
		return RiskHigh
	}
	return RiskLow
}

// TopologyPrediction is the topology model's answer for one proposed
// configuration, reported per path.
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
	// lowest over components.
	SaturationSource float64 `json:"saturation_source_tpm"`
	// Bottleneck names the component limiting the topology.
	Bottleneck string `json:"bottleneck"`
	// Risk is the topology backpressure risk at SourceRate.
	Risk Risk `json:"backpressure_risk"`
	// TotalCPU sums predicted component CPU loads (cores) over all
	// CPU-calibrated components.
	TotalCPU float64 `json:"total_cpu_cores"`
}

// Predict evaluates the topology at the given source rate t₀
// (tuples/minute) under optional parallelism overrides (nil = the
// topology's current values) in one pass over the DAG in topological
// order.
//
// Each component saturates at t₀ = SaturationSource/gᵢ, and the lowest
// of these is the topology saturation point t′₀ (Eq. 13). Rates are
// then propagated once at min(t₀, t′₀), reflecting global
// backpressure: once any component saturates the spouts are stopped
// and every path throttles together. The spouts share t₀ evenly, as
// metrics.SourceRate sums them; any other component's source rate sums
// α times the input rate of each upstream component (Eq. 12), so a
// component that merges branches carries all of them. Every path
// reads its rows from that one evaluation; risk (Eq. 14) is still
// classified against the requested t₀.
func (tm *TopologyModel) Predict(parallelisms map[string]int, sourceRate float64) (TopologyPrediction, error) {
	if sourceRate < 0 {
		return TopologyPrediction{}, fmt.Errorf("core: negative source rate %g", sourceRate)
	}
	if len(tm.paths) == 0 {
		return TopologyPrediction{}, fmt.Errorf("core: topology %q has no paths", tm.topo.Name())
	}
	out := TopologyPrediction{SourceRate: sourceRate, SaturationSource: math.Inf(1)}
	rows := make([]ComponentPrediction, len(tm.nodes))
	// sat[i] is component i's saturation source rate, t0sat[i] the t₀
	// at which it is reached.
	sat := make([]float64, 2*len(tm.nodes))
	sat, t0sat := sat[:len(tm.nodes)], sat[len(tm.nodes):]
	for i, n := range tm.nodes {
		p := n.parallelism
		if o, ok := parallelisms[n.name]; ok {
			p = o
		}
		if p < 1 {
			return TopologyPrediction{}, fmt.Errorf("core: component %q parallelism %d", n.name, p)
		}
		rows[i] = ComponentPrediction{Component: n.name, Parallelism: p}
		sat[i], t0sat[i] = n.model.SaturationSource(p), math.Inf(1)
		if n.gain > 0 && !math.IsInf(sat[i], 1) {
			t0sat[i] = sat[i] / n.gain
		}
		if t0sat[i] < out.SaturationSource {
			out.SaturationSource = t0sat[i]
			out.Bottleneck = n.name
		}
	}
	effective := math.Min(sourceRate, out.SaturationSource)
	for i, n := range tm.nodes {
		r := &rows[i]
		if n.spout {
			r.SourceRate = n.gain * effective
		}
		in := math.Min(r.SourceRate, sat[i])
		r.InputRate = in
		r.OutputRate = n.model.Instance.Alpha * in
		r.Saturated = r.SourceRate >= sat[i]
		if n.model.CPUPsi > 0 {
			r.CPULoad = n.model.CPUPsi * in
		}
		out.TotalCPU += r.CPULoad
		for _, e := range n.out {
			rows[e.to].SourceRate += e.alpha * in
		}
	}
	out.Paths = make([]PathPrediction, len(tm.paths))
	for k, path := range tm.paths {
		pp := PathPrediction{
			Path:             make([]string, len(path)),
			SaturationSource: math.Inf(1),
			Components:       make([]ComponentPrediction, len(path)),
		}
		for j, i := range path {
			pp.Path[j], pp.Components[j] = tm.nodes[i].name, rows[i]
			if t0sat[i] < pp.SaturationSource {
				pp.SaturationSource = t0sat[i]
				pp.Bottleneck = tm.nodes[i].name
			}
		}
		last := pp.Components[len(pp.Components)-1]
		pp.OutputRate, pp.SinkThroughput = last.OutputRate, last.InputRate
		pp.Risk = classifyRisk(sourceRate, pp.SaturationSource)
		out.Paths[k] = pp
	}
	critical := out.CriticalPath()
	out.OutputRate, out.SinkThroughput = critical.OutputRate, critical.SinkThroughput
	out.Risk = classifyRisk(sourceRate, out.SaturationSource)
	return out, nil
}

// SuggestParallelism proposes the minimal per-component parallelisms
// that keep every component below saturation at the given topology
// source rate with the given headroom fraction (e.g. 0.2 keeps each
// component at ≤ 1/1.2 of its saturation input). Each component is
// sized for gᵢ·t₀, its source rate in the linear regime (the suggestion
// keeps everything unsaturated, making the assumption
// self-consistent). This is the planning primitive that lets Caladrius
// replace Dhalion's multi-round scaling with a single dry-run
// iteration.
func (tm *TopologyModel) SuggestParallelism(sourceRate, headroom float64) (map[string]int, error) {
	if sourceRate < 0 {
		return nil, fmt.Errorf("core: negative source rate %g", sourceRate)
	}
	if headroom < 0 {
		return nil, fmt.Errorf("core: negative headroom %g", headroom)
	}
	result := make(map[string]int, len(tm.nodes))
	for _, n := range tm.nodes {
		p := 1
		if sp := n.model.Instance.SP; !math.IsInf(sp, 1) {
			p = max(1, int(math.Ceil(n.gain*sourceRate*(1+headroom)/sp)))
		}
		result[n.name] = p
	}
	return result, nil
}
