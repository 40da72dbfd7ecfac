package heron

import (
	"fmt"
	"time"

	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
)

// Substrate is the metric state a Caladrius service models: a metrics
// database holding a topology's history up to AsOf, and the topology
// and packing plan that produced it. The daemon registers the pair
// with its tracker and serves DB through a metrics provider; whether
// the history was simulated in-process or loaded from a heronsim
// snapshot makes no difference downstream.
type Substrate struct {
	DB       *tsdb.DB
	AsOf     time.Time
	Topology *topology.Topology
	Plan     *topology.PackingPlan
}

// Substrate returns the simulation's metric state as of the simulated
// time processed so far. DB is live: running the simulation further
// keeps appending to it, while AsOf stays at the moment of the call.
func (s *Simulation) Substrate() *Substrate {
	return &Substrate{
		DB:       s.db,
		AsOf:     DefaultStart.Add(s.elapsed),
		Topology: s.cfg.Topology,
		Plan:     s.cfg.Plan,
	}
}

// LoadWordCountSnapshot builds a substrate over a `heronsim -save`
// metrics snapshot of the evaluation topology. The snapshot carries its
// own plan: each component's parallelism and each instance's container
// come from the labels of its execute-count series (see wordCountPlan).
// AsOf is one rollup minute past the newest execute-count sample.
func LoadWordCountSnapshot(path string) (*Substrate, error) {
	db, err := tsdb.LoadFile(path)
	if err != nil {
		return nil, err
	}
	latest, err := db.Latest(MetricExecuteCount, nil)
	if err != nil {
		return nil, fmt.Errorf("snapshot has no execute-count metrics: %w", err)
	}
	asOf := latest.T.Add(time.Minute)
	series, err := db.Query(MetricExecuteCount, nil, time.Time{}, asOf)
	if err != nil {
		return nil, err
	}
	top, plan, err := wordCountPlan(series)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return &Substrate{DB: db, AsOf: asOf, Topology: top, Plan: plan}, nil
}
