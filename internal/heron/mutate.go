package heron

import (
	"fmt"

	"caladrius/internal/topology"
)

// SetRouteAlpha changes the I/O coefficient of every route from
// component to dest, across all instances, to alpha. It models a
// mid-run workload shift — e.g. average sentence length changing under
// a word-count splitter — and is the lever the model-drift tests use
// to pull the simulator away from a calibration.
//
// The simulation is single-goroutine: call this only between Run
// invocations. It returns an error when alpha is negative or no such
// route exists.
func (s *Simulation) SetRouteAlpha(component, dest string, alpha float64) error {
	if alpha < 0 {
		return fmt.Errorf("heron: negative route alpha %g", alpha)
	}
	found := false
	for _, inst := range s.instances {
		if inst.id.Component != component {
			continue
		}
		for i := range inst.routes {
			if inst.routes[i].toComponent == dest {
				inst.routes[i].alpha = alpha
				found = true
			}
		}
	}
	if !found {
		return fmt.Errorf("heron: no route %s->%s", component, dest)
	}
	// The recorded windows and the slack record ran at the old alpha.
	s.replay, s.slack = replayer{}, slack{}
	return nil
}

// Update applies a `heron update`: the given component parallelisms
// change, a round-robin packing plan over the same container count is
// computed with a bumped version, and every instance restarts from an
// empty queue, as a real update restarts them. The simulation keeps its
// clock, its metrics window grid and its database, so the spout
// schedules continue at the true elapsed time and the metric history
// runs on across the update, which is what Caladrius calibrates from.
// Everything else starts afresh from the Config: the fault injector,
// which was armed against the old plan, is detached; SetRouteAlpha
// changes revert to the profiles; Totals count from the update.
//
// With dryRun the simulation is left unchanged and the returned plan is
// the one the update would deploy, as `heron update --dry-run` reports
// it: the hook Caladrius uses to cost a configuration without deploying
// it (§V). A real update is refused inside a metrics window, since the
// restarted instances would lose the window's partial counts.
func (s *Simulation) Update(parallelisms map[string]int, dryRun bool) (*topology.PackingPlan, error) {
	top, err := s.cfg.Topology.WithParallelism(parallelisms)
	if err != nil {
		return nil, err
	}
	plan, err := topology.RoundRobinPack(top, len(s.cfg.Plan.Containers))
	if err != nil {
		return nil, err
	}
	plan.Version = s.cfg.Plan.Version + 1
	if dryRun {
		return plan, nil
	}
	if s.elapsed != s.windowEnd {
		return nil, fmt.Errorf("heron: update at %s is inside a metrics window: update on a whole minute", s.elapsed)
	}
	cfg := s.cfg
	cfg.Topology, cfg.Plan = top, plan
	next, err := New(cfg)
	if err != nil {
		return nil, err
	}
	next.elapsed, next.windowEnd = s.elapsed, s.windowEnd
	*s = *next
	return plan, nil
}
