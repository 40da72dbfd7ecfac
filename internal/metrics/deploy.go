package metrics

import (
	"fmt"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/topology"
)

// Deployment is one measured word-count run: a provider over the
// metrics it wrote, the [Start, End) window they cover, the deployed
// topology, and how many of the window's leading minutes are warm-up.
type Deployment struct {
	Provider   *TSDBProvider
	Start, End time.Time
	Topology   *topology.Topology
	Warmup     int
}

// DeployWordCount deploys the evaluation topology under opts and runs
// it for warmup+measure simulated minutes: the deploy → stabilise →
// measure step of the paper's evaluation loop (§V) and of every scaling
// round. The run is a deterministic function of opts.
func DeployWordCount(opts heron.WordCountOptions, warmup, measure int) (*Deployment, error) {
	total := time.Duration(warmup+measure) * time.Minute
	sub, err := heron.SimulateWordCount(opts, total)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Provider: &TSDBProvider{db: sub.DB, window: time.Minute},
		Start:    sub.AsOf.Add(-total),
		End:      sub.AsOf,
		Topology: sub.Topology,
		Warmup:   warmup,
	}, nil
}

// SteadyState summarises a component's windows after the warm-up.
func (d *Deployment) SteadyState(component string) (SteadyState, error) {
	ws, err := d.Provider.ComponentWindows(d.Topology.Name(), component, d.Start, d.End)
	if err != nil {
		return SteadyState{}, err
	}
	return Summarise(ws, d.Warmup)
}

// BackpressureMs is the mean per-window topology backpressure time
// after the warm-up.
func (d *Deployment) BackpressureMs() (float64, error) {
	pts, err := d.Provider.TopologyBackpressureMs(d.Topology.Name(), d.Start.Add(time.Duration(d.Warmup)*time.Minute), d.End)
	if err != nil {
		return 0, err
	}
	if len(pts) == 0 {
		return 0, fmt.Errorf("%w: topology backpressure of %q after %d warm-up minutes", ErrNoData, d.Topology.Name(), d.Warmup)
	}
	var sum float64
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts)), nil
}
