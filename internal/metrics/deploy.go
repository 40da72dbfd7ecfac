package metrics

import (
	"fmt"
	"time"

	"caladrius/internal/heron"
)

// Deployment is one measured simulated run: the substrate it left, with
// AsOf at the end of the measured window, a provider over its metrics,
// the window's Start, and how many leading minutes are warm-up.
type Deployment struct {
	*heron.Substrate
	Provider *TSDBProvider
	Start    time.Time
	Warmup   int
}

// Deploy runs sim, any topology, for warmup+measure simulated minutes
// from where it stands and measures that window: the deploy → stabilise
// → measure step of the paper's evaluation loop (§V) and of every
// scaling round. The run is a deterministic function of the simulation.
func Deploy(sim *heron.Simulation, warmup, measure int) (*Deployment, error) {
	start := sim.Start().Add(sim.Elapsed())
	if err := sim.Run(time.Duration(warmup+measure) * time.Minute); err != nil {
		return nil, err
	}
	sub := sim.Substrate()
	return &Deployment{
		Substrate: sub,
		Provider:  &TSDBProvider{db: sub.DB, window: time.Minute},
		Start:     start,
		Warmup:    warmup,
	}, nil
}

// DeployWordCount deploys the evaluation topology under opts, the way
// heron.NewWordCount builds it.
func DeployWordCount(opts heron.WordCountOptions, warmup, measure int) (*Deployment, error) {
	sim, err := heron.NewWordCount(opts)
	if err != nil {
		return nil, err
	}
	return Deploy(sim, warmup, measure)
}

// SteadyState summarises a component's windows after the warm-up.
func (d *Deployment) SteadyState(component string) (SteadyState, error) {
	ws, err := d.Provider.ComponentWindows(d.Topology.Name(), component, d.Start, d.AsOf)
	if err != nil {
		return SteadyState{}, err
	}
	return Summarise(ws, d.Warmup)
}

// BackpressureMs is the mean per-window topology backpressure time
// after the warm-up.
func (d *Deployment) BackpressureMs() (float64, error) {
	pts, err := d.Provider.TopologyBackpressureMs(d.Topology.Name(), d.Start.Add(time.Duration(d.Warmup)*time.Minute), d.AsOf)
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
