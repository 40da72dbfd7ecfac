package heron

// Fault injection hook. The simulator stays deterministic: faults are
// pure functions of simulated time supplied by a FaultInjector, so the
// same injector schedule always yields the same run. The hook is
// designed to cost nothing when idle — one nil check per tick without
// an injector, and one BeginTick call per tick with an injector whose
// schedule is currently quiet (no per-instance work, no allocations).

import (
	"time"

	"caladrius/internal/topology"
)

// InstanceFault is the failure effect applied to one instance for the
// current tick. The zero value means "healthy".
type InstanceFault struct {
	// Down keeps the instance from processing this tick: a bolt leaves
	// its queue untouched (arrivals still accumulate), a spout stops
	// pulling from its source (the external backlog still grows).
	// Models a crashed instance or a stalled stream manager.
	Down bool
	// DropQueue discards the instance's pending queue right now; the
	// lost tuples are counted as failed and as a restart (the same
	// accounting as an OOM restart). Injectors should set it only on
	// the first tick of a crash.
	DropQueue bool
	// SlowFactor scales the instance's service capacity while the
	// fault is active; 0 (or 1) means unchanged. Models a degraded
	// host or noisy neighbour.
	SlowFactor float64
	// Unreachable discards arrivals addressed to this instance
	// (counted as route-dropped and failed). Models a network
	// partition of the instance's container.
	Unreachable bool
}

// FaultInjector feeds scheduled faults into a Simulation.
//
// The simulation calls BeginTick exactly once at the start of every
// tick with the elapsed simulated time. When it returns false the tick
// runs entirely on the fault-free path. When it returns true the
// simulation calls InstanceFault exactly once per instance, in
// topological component order, and applies the returned effects for
// this tick — so one-shot effects (DropQueue) are consumed the tick
// they are returned.
//
// Implementations must be deterministic in elapsed time; they need no
// internal locking (a Simulation is single-goroutine) but must not
// share mutable state across simulations.
type FaultInjector interface {
	BeginTick(elapsed time.Duration) bool
	InstanceFault(id topology.InstanceID) InstanceFault
}

// WithFaultInjector attaches (or, with nil, detaches) a fault injector
// to the simulation. Attach before Run; effects begin on the next
// tick. Either way it drops the windows and the slack record kept
// for replay: a simulation with an injector steps every tick, and one
// detached from it may keep a fault's effects.
func (s *Simulation) WithFaultInjector(inj FaultInjector) {
	s.injector = inj
	s.replay = replayer{}
	s.slack = slack{}
}

// applyFaults runs the injector protocol for one tick and returns the
// tuples dropped by one-shot queue drops so step() can count them in
// event telemetry.
func (s *Simulation) applyFaults() float64 {
	dtSec := s.cfg.Tick.Seconds()
	if !s.injector.BeginTick(s.elapsed) {
		if s.faultTick {
			// The last fault just cleared: restore every instance.
			for _, inst := range s.instances {
				inst.fUnreach = false
				inst.setSlow(inst.baseSlow, dtSec)
			}
			s.faultTick = false
		}
		return 0
	}
	s.faultTick = true
	var dropped float64
	for _, inst := range s.instances {
		f := s.injector.InstanceFault(inst.id)
		inst.fUnreach = f.Unreachable
		if f.SlowFactor > 0 {
			inst.setSlow(inst.baseSlow*f.SlowFactor, dtSec)
		} else {
			inst.setSlow(inst.baseSlow, dtSec)
		}
		if f.Down && inst.downTicks == 0 {
			// One tick of downtime per Down tick keeps overlapping OOM
			// restart delays intact (downTicks is decremented in the
			// instance's own step).
			inst.downTicks = 1
		}
		if f.DropQueue && inst.queueTuples > 0 {
			inst.wFailed += inst.queueTuples
			inst.wQueueDropped += inst.queueTuples
			dropped += inst.queueTuples
			inst.queueTuples = 0
			inst.wRestarts++
		}
	}
	return dropped
}

// InstanceTotals is the cumulative tuple ledger of one instance since
// the start of the run, exact at any tick. The conservation laws the
// simulator maintains — under any fault schedule — are:
//
//	spout:  Source  == Executed + Backlog
//	bolt:   Arrived == Executed + QueueDropped + Queue
//	wiring: Σ Emitted == Σ bolts (Arrived + RouteDropped + InFlight)
//
// AllGrouping emits are counted per delivered copy, so the wiring sum
// balances without special cases.
type InstanceTotals struct {
	ID topology.InstanceID
	// Source counts external tuples offered to a spout; Backlog is the
	// portion not yet pulled.
	Source  float64
	Backlog float64
	// Arrived counts tuples accepted into a bolt's input queue;
	// InFlight is routed this tick but not yet enqueued.
	Arrived  float64
	InFlight float64
	// Executed / Emitted are processed tuples and per-copy emits.
	Executed float64
	Emitted  float64
	// Failed = user-logic failures + QueueDropped + RouteDropped.
	Failed float64
	// QueueDropped counts queue losses (OOM restarts and crash
	// faults); RouteDropped counts arrivals lost to partition faults.
	QueueDropped float64
	RouteDropped float64
	// Queue is the tuples pending in the input queue now.
	Queue float64
	// Restarts counts OOM and crash-fault restarts.
	Restarts float64
	// BackpressureMs is total time spent initiating backpressure.
	BackpressureMs float64
}

// Totals returns the cumulative per-instance ledgers, in topological
// component order. Closed windows are pre-aggregated at flushWindow,
// so this only folds in the live window's accumulators.
func (s *Simulation) Totals() []InstanceTotals {
	out := make([]InstanceTotals, len(s.instances))
	for i, inst := range s.instances {
		c := &inst.cum
		out[i] = InstanceTotals{
			ID:             inst.id,
			Source:         c.source + inst.wSource,
			Backlog:        inst.backlog,
			Arrived:        c.arrived + inst.wArrived,
			InFlight:       inst.arrivedTick,
			Executed:       c.executed + inst.wExecuted,
			Emitted:        c.emitted + inst.wEmitted,
			Failed:         c.failed + inst.wFailed,
			QueueDropped:   c.queueDropped + inst.wQueueDropped,
			RouteDropped:   c.routeDropped + inst.wRouteDropped,
			Queue:          inst.queueTuples,
			Restarts:       c.restarts + inst.wRestarts,
			BackpressureMs: c.bpMs + inst.wBpMs,
		}
	}
	return out
}
