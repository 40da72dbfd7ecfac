package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"caladrius/internal/topology"
)

// LastSimFaultEnd returns when the last simulator-side fault clears
// (0 when the plan has none). Recovery assertions measure from here.
func (p *Plan) LastSimFaultEnd() time.Duration {
	var last time.Duration
	for _, f := range p.Faults {
		if isSimKind(f.Kind) && f.End() > last {
			last = f.End()
		}
	}
	return last
}

// SimKinds are the fault kinds the simulator hook applies.
var SimKinds = []FaultKind{FaultCrash, FaultSlow, FaultStall, FaultPartition}

// GenOptions tunes GeneratePlan.
type GenOptions struct {
	// Horizon is the run length the plan targets; required. Faults are
	// confined to the first two thirds of it so every run ends with a
	// clean recovery period.
	Horizon time.Duration
	// Faults is how many faults to schedule. Default 4.
	Faults int
	// Kinds is the pool of fault kinds to draw from. Default: all
	// simulator-side kinds. Kinds are cycled in shuffled order, so
	// Faults >= len(Kinds) guarantees every kind appears.
	Kinds []FaultKind
	// MaxDuration caps each fault's length. Default Horizon/10.
	MaxDuration time.Duration
	// Latency is the delay used by generated metrics-latency faults.
	// Default 10ms.
	Latency time.Duration
}

// GeneratePlan builds a random but fully deterministic plan: the same
// seed, topology, packing plan and options always produce the same
// schedule. Faults are placed in disjoint time slots (so the plan
// always validates) within [Horizon/6, 2·Horizon/3).
func GeneratePlan(seed int64, topo *topology.Topology, pack *topology.PackingPlan, opts GenOptions) (*Plan, error) {
	if opts.Horizon <= 0 {
		return nil, fmt.Errorf("chaos: non-positive horizon %s", opts.Horizon)
	}
	if opts.Faults == 0 {
		opts.Faults = 4
	}
	if opts.Faults < 0 {
		return nil, fmt.Errorf("chaos: negative fault count %d", opts.Faults)
	}
	if len(opts.Kinds) == 0 {
		opts.Kinds = SimKinds
	}
	if opts.MaxDuration <= 0 {
		opts.MaxDuration = opts.Horizon / 10
	}
	if opts.Latency <= 0 {
		opts.Latency = 10 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(seed))
	kinds := append([]FaultKind(nil), opts.Kinds...)
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	region0 := opts.Horizon / 6
	region := 2*opts.Horizon/3 - region0
	slot := region / time.Duration(opts.Faults)
	p := &Plan{Seed: seed}
	instances := topo.Instances()
	for i := 0; i < opts.Faults; i++ {
		f := Fault{Kind: kinds[i%len(kinds)]}
		// Each fault lives inside its own slot: start in the first
		// third, duration at most half the slot (and MaxDuration).
		at := region0 + time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot/3)+1))
		maxDur := slot / 2
		if maxDur > opts.MaxDuration {
			maxDur = opts.MaxDuration
		}
		dur := maxDur/2 + time.Duration(rng.Int63n(int64(maxDur/2)+1))
		f.At, f.Duration = Duration(at), Duration(dur)
		switch f.Kind {
		case FaultCrash, FaultSlow:
			id := instances[rng.Intn(len(instances))]
			f.Component, f.Instance = id.Component, id.Index
			if f.Kind == FaultSlow {
				// Severe degradation (x0.1–x0.5): mild slowdowns on an
				// over-provisioned component would be invisible.
				f.Factor = 0.1 + 0.4*rng.Float64()
			}
		case FaultStall, FaultPartition:
			f.Container = rng.Intn(len(pack.Containers))
		case FaultMetricsLatency:
			f.Latency = Duration(opts.Latency)
		}
		p.Faults = append(p.Faults, f)
	}
	if err := p.Validate(topo, pack); err != nil {
		return nil, fmt.Errorf("chaos: generated plan invalid: %v", err)
	}
	return p, nil
}
