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
		AsOf:     s.cfg.Start.Add(s.elapsed),
		Topology: s.cfg.Topology,
		Plan:     s.cfg.Plan,
	}
}

// SimulateWordCount runs the evaluation topology for warm of simulated
// time and returns the resulting substrate.
func SimulateWordCount(opts WordCountOptions, warm time.Duration) (*Substrate, error) {
	sim, err := NewWordCount(opts)
	if err != nil {
		return nil, err
	}
	if err := sim.Run(warm); err != nil {
		return nil, err
	}
	return sim.Substrate(), nil
}

// LoadWordCountSnapshot builds a substrate over a `heronsim -save`
// metrics snapshot of the evaluation topology at the given
// parallelisms. AsOf is one rollup minute past the newest
// execute-count sample.
func LoadWordCountSnapshot(path string, splitterP, counterP int) (*Substrate, error) {
	db, err := tsdb.LoadFile(path)
	if err != nil {
		return nil, err
	}
	latest, err := db.Latest(MetricExecuteCount, nil)
	if err != nil {
		return nil, fmt.Errorf("snapshot has no execute-count metrics: %w", err)
	}
	o := WordCountOptions{SplitterP: splitterP, CounterP: counterP}.withDefaults()
	top, err := WordCountTopology(o.SpoutP, o.SplitterP, o.CounterP)
	if err != nil {
		return nil, err
	}
	plan, err := topology.RoundRobinPack(top, o.Containers)
	if err != nil {
		return nil, err
	}
	return &Substrate{DB: db, AsOf: latest.T.Add(time.Minute), Topology: top, Plan: plan}, nil
}
