// Package chaos is a deterministic, seedable fault-injection layer for
// the Caladrius reproduction. A Plan is a declarative schedule of
// faults against a simulated topology (instance crashes, degraded
// instances, stream-manager stalls, container partitions) and against
// the metrics provider (outages, data gaps, latency spikes). Plans are
// applied through two hooks:
//
//   - heron.WithFaultInjector(chaos.NewInjector(plan, topo, pack))
//     injects the simulator-side faults;
//   - chaos.NewFaultyProvider(inner, plan, opts) decorates a
//     metrics.Provider with the provider-side faults.
//
// Everything is a pure function of the plan and simulated time: the
// same plan always yields the same fault trace, so failures are
// replayable in tests.
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"caladrius/internal/topology"
)

// FaultKind enumerates the supported fault types.
type FaultKind string

// Simulator-side faults target instances or containers of the running
// topology; provider-side faults target the metrics path only.
const (
	// FaultCrash kills one instance: its pending queue is lost
	// (counted as failed tuples and a restart) and it stays offline
	// for the fault's duration.
	FaultCrash FaultKind = "crash"
	// FaultSlow degrades one instance's service capacity by Factor for
	// the fault's duration.
	FaultSlow FaultKind = "slow"
	// FaultStall freezes a container's stream manager: every instance
	// in the container stops processing (queues keep building) until
	// the fault clears.
	FaultStall FaultKind = "stall"
	// FaultPartition cuts a container off the network: arrivals
	// addressed to its instances are lost in flight (counted as
	// route-dropped) while the fault is active.
	FaultPartition FaultKind = "partition"
	// FaultMetricsOutage makes every provider call fail with
	// metrics.ErrUnavailable during the fault.
	FaultMetricsOutage FaultKind = "metrics-outage"
	// FaultMetricsGap permanently removes metric points whose
	// timestamps fall inside the fault interval, as if the metrics
	// database lost the range.
	FaultMetricsGap FaultKind = "metrics-gap"
	// FaultMetricsLatency delays every provider call by Latency while
	// the fault is active.
	FaultMetricsLatency FaultKind = "metrics-latency"
)

func isSimKind(k FaultKind) bool {
	return k == FaultCrash || k == FaultSlow || k == FaultStall || k == FaultPartition
}

func isMetricsKind(k FaultKind) bool {
	return k == FaultMetricsOutage || k == FaultMetricsGap || k == FaultMetricsLatency
}

// Duration is a time.Duration that marshals to/from Go duration
// strings ("2m30s") in JSON, so committed fault plans stay readable.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler; it accepts duration
// strings ("90s") and bare numbers (nanoseconds, encoding/json's
// native representation of time.Duration).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %v", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("chaos: duration must be a string or integer, got %s", b)
	}
	*d = Duration(n)
	return nil
}

// AllInstances targets every instance of a fault's component.
const AllInstances = -1

// Fault is one scheduled fault. Which target fields matter depends on
// Kind: crash/slow name a Component and Instance (AllInstances for
// all of them), stall/partition name a Container, metrics faults need
// no target.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// At is the fault's onset, as simulated time since the run start.
	At Duration `json:"at"`
	// Duration is how long the fault stays active; the fault covers
	// [At, At+Duration).
	Duration Duration `json:"duration"`

	Component string `json:"component,omitempty"`
	Instance  int    `json:"instance,omitempty"`
	Container int    `json:"container,omitempty"`

	// Factor is the slow fault's service-rate multiplier (0 < Factor).
	Factor float64 `json:"factor,omitempty"`
	// Latency is the metrics-latency fault's added delay per call.
	Latency Duration `json:"latency,omitempty"`
}

// End is the fault's clearing time (exclusive).
func (f Fault) End() time.Duration { return time.Duration(f.At) + time.Duration(f.Duration) }

// ActiveAt reports whether the fault covers the given simulated time.
func (f Fault) ActiveAt(t time.Duration) bool {
	return time.Duration(f.At) <= t && t < f.End()
}

func (f Fault) String() string {
	switch {
	case f.Kind == FaultCrash || f.Kind == FaultSlow:
		target := fmt.Sprintf("%s[%d]", f.Component, f.Instance)
		if f.Instance == AllInstances {
			target = f.Component + "[*]"
		}
		if f.Kind == FaultSlow {
			return fmt.Sprintf("%s %s x%g", f.Kind, target, f.Factor)
		}
		return fmt.Sprintf("%s %s", f.Kind, target)
	case f.Kind == FaultStall || f.Kind == FaultPartition:
		return fmt.Sprintf("%s container %d", f.Kind, f.Container)
	case f.Kind == FaultMetricsLatency:
		return fmt.Sprintf("%s +%s", f.Kind, time.Duration(f.Latency))
	default:
		return string(f.Kind)
	}
}

// Plan is a declarative fault schedule. Seed records the generator
// seed for provenance (0 for hand-written plans).
type Plan struct {
	Seed   int64   `json:"seed,omitempty"`
	Faults []Fault `json:"faults"`
}

// SimFaults returns the simulator-side faults in schedule order.
func (p *Plan) SimFaults() []Fault { return p.filter(isSimKind) }

// MetricsFaults returns the provider-side faults in schedule order.
func (p *Plan) MetricsFaults() []Fault { return p.filter(isMetricsKind) }

func (p *Plan) filter(keep func(FaultKind) bool) []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if keep(f.Kind) {
			out = append(out, f)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// ParsePlan decodes a JSON plan, rejecting unknown fields so schema
// typos in committed plans fail loudly, and anything after the plan so
// a second, concatenated plan is not silently dropped.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: bad plan: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("chaos: bad plan: trailing data after the plan")
	}
	return &p, nil
}

// instancesOf expands a fault to the instances it affects.
func (f Fault) instancesOf(topo *topology.Topology, pack *topology.PackingPlan) []topology.InstanceID {
	switch f.Kind {
	case FaultCrash, FaultSlow:
		if f.Instance == AllInstances {
			var out []topology.InstanceID
			for _, id := range topo.Instances() {
				if id.Component == f.Component {
					out = append(out, id)
				}
			}
			return out
		}
		return []topology.InstanceID{{Component: f.Component, Index: f.Instance}}
	case FaultStall, FaultPartition:
		var out []topology.InstanceID
		for _, id := range topo.Instances() {
			if c, ok := pack.ContainerOf(id); ok && c == f.Container {
				out = append(out, id)
			}
		}
		return out
	default:
		return nil
	}
}

// Validate checks the plan against a topology and packing plan: known
// kinds, positive durations, existing targets, and — because the
// injector keeps at most one active fault per instance — no two
// simulator-side faults overlapping on the same instance.
func (p *Plan) Validate(topo *topology.Topology, pack *topology.PackingPlan) error {
	type interval struct {
		from, to time.Duration
		fi       int
	}
	perInstance := map[topology.InstanceID][]interval{}
	for i, f := range p.Faults {
		if f.At < 0 {
			return fmt.Errorf("chaos: fault %d (%s): negative onset %s", i, f, time.Duration(f.At))
		}
		if f.Duration <= 0 {
			return fmt.Errorf("chaos: fault %d (%s): non-positive duration %s", i, f, time.Duration(f.Duration))
		}
		if f.At > math.MaxInt64-f.Duration {
			return fmt.Errorf("chaos: fault %d (%s): onset %s + duration %s overflows", i, f, time.Duration(f.At), time.Duration(f.Duration))
		}
		switch f.Kind {
		case FaultCrash, FaultSlow:
			c := topo.Component(f.Component)
			if c == nil {
				return fmt.Errorf("chaos: fault %d (%s): unknown component %q", i, f, f.Component)
			}
			if f.Instance != AllInstances && (f.Instance < 0 || f.Instance >= c.Parallelism) {
				return fmt.Errorf("chaos: fault %d (%s): instance %d out of range [0,%d)", i, f, f.Instance, c.Parallelism)
			}
			if f.Kind == FaultSlow && f.Factor <= 0 {
				return fmt.Errorf("chaos: fault %d (%s): slow factor must be positive, got %g", i, f, f.Factor)
			}
		case FaultStall, FaultPartition:
			if f.Container < 0 || f.Container >= len(pack.Containers) {
				return fmt.Errorf("chaos: fault %d (%s): container %d out of range [0,%d)", i, f, f.Container, len(pack.Containers))
			}
		case FaultMetricsOutage, FaultMetricsGap:
			// No target.
		case FaultMetricsLatency:
			if f.Latency <= 0 {
				return fmt.Errorf("chaos: fault %d (%s): non-positive latency %s", i, f, time.Duration(f.Latency))
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
		for _, id := range f.instancesOf(topo, pack) {
			iv := interval{time.Duration(f.At), f.End(), i}
			for _, prev := range perInstance[id] {
				if iv.from < prev.to && prev.from < iv.to {
					return fmt.Errorf("chaos: faults %d and %d overlap on %s", prev.fi, iv.fi, id)
				}
			}
			perInstance[id] = append(perInstance[id], iv)
		}
	}
	return nil
}
