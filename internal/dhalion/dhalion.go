// Package dhalion implements a Dhalion-style self-regulating scaler,
// the baseline Caladrius is motivated against. Dhalion monitors a
// deployed topology, recognises symptoms (backpressure, missed
// throughput SLOs), diagnoses the bottleneck component and applies a
// resolution — scaling that component out — then redeploys and waits
// for the topology to stabilise before re-evaluating. Convergence to
// an SLO therefore costs one deploy-measure-diagnose round per
// adjustment, the "plan → deploy → stabilize → analyze loop" the paper
// says can take weeks on production topologies.
//
// Both loops deploy word-count on the heron simulator through the
// package's one deploy, so benchmarks can race Dhalion's round count
// against Caladrius' single dry-run iteration.
package dhalion

import (
	"fmt"
	"maps"

	"caladrius/internal/heron"
	"caladrius/internal/metrics"
)

// Measurement is what one deployment round observes after the topology
// stabilises.
type Measurement struct {
	// BackpressureMsPerMin is the steady-state topology backpressure
	// time (ms per minute window).
	BackpressureMsPerMin float64
	// ComponentBackpressureMs maps component → its per-window
	// backpressure time (the diagnosis signal).
	ComponentBackpressureMs map[string]float64
	// SinkThroughputTPM is the summed processing throughput of sink
	// components in tuples/minute (the SLO metric).
	SinkThroughputTPM float64
}

// Round records one iteration of the scaling loop.
type Round struct {
	Parallelisms map[string]int
	Measurement  Measurement
	// Diagnosis explains the action taken after this round.
	Diagnosis string
}

// Result is the outcome of a scaling session.
type Result struct {
	Rounds []Round
	// Converged reports whether the SLO was met without backpressure.
	Converged bool
	// FinalParallelisms is the configuration of the last round.
	FinalParallelisms map[string]int
	// Reason describes why the loop stopped.
	Reason string
}

// Deployments returns the number of deployments performed — the cost
// metric Caladrius reduces.
func (r Result) Deployments() int { return len(r.Rounds) }

// stop ends a loop on round r: its diagnosis becomes the reason and its
// parallelisms the final configuration.
func (res *Result) stop(r Round, converged bool) (Result, error) {
	res.Rounds = append(res.Rounds, r)
	res.Converged = converged
	res.Reason = r.Diagnosis
	res.FinalParallelisms = maps.Clone(r.Parallelisms)
	return *res, nil
}

// The loops' fixed knobs. Both diagnose the backpressure symptom at
// the same threshold and count an SLO as met within the same tolerance.
const (
	// sloTolerance lets the throughput fall this fraction short and
	// still count as met.
	sloTolerance = 0.02
	// backpressureThresholdMs is the per-window backpressure time that
	// counts as the backpressure symptom.
	backpressureThresholdMs = 5000
	// scaleFactor multiplies the bottleneck's parallelism each round
	// (Dhalion scales gradually), by at least one instance.
	scaleFactor = 1.5
	// maxParallelism caps any single component.
	maxParallelism = 64
	// defaultMaxRounds bounds a Scaler whose MaxRounds is 0.
	defaultMaxRounds = 12
)

// Scaler is the symptom → diagnosis → resolution loop.
type Scaler struct {
	// RatePerMinute is the offered source rate.
	RatePerMinute float64
	// SLOThroughputTPM is the required sink throughput.
	SLOThroughputTPM float64
	// MaxRounds bounds the loop. Default 12.
	MaxRounds int
}

// Run executes the scaling loop from the initial configuration.
func (s Scaler) Run(initial map[string]int) (Result, error) {
	if s.SLOThroughputTPM <= 0 || s.RatePerMinute <= 0 {
		return Result{}, fmt.Errorf("dhalion: scaler needs positive rate and SLO, got %g and %g", s.RatePerMinute, s.SLOThroughputTPM)
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds
	}
	current := map[string]int{}
	for k, v := range initial {
		if v < 1 {
			return Result{}, fmt.Errorf("dhalion: component %q parallelism %d", k, v)
		}
		current[k] = v
	}
	res := Result{}
	for round := 0; round < maxRounds; round++ {
		m, _, err := deploy(s.RatePerMinute, current, scalerMeasureMinutes)
		if err != nil {
			return res, fmt.Errorf("dhalion: round %d deploy: %w", round+1, err)
		}
		r := Round{Parallelisms: maps.Clone(current), Measurement: m}

		sloMet := m.SinkThroughputTPM >= s.SLOThroughputTPM*(1-sloTolerance)
		hasBp := m.BackpressureMsPerMin >= backpressureThresholdMs

		switch {
		case sloMet && !hasBp:
			r.Diagnosis = "healthy: SLO met without backpressure"
			return res.stop(r, true)
		case hasBp:
			bottleneck := ""
			worst := -1.0
			for comp, bp := range m.ComponentBackpressureMs {
				if bp > worst {
					worst, bottleneck = bp, comp
				}
			}
			if bottleneck == "" || worst < backpressureThresholdMs {
				r.Diagnosis = "backpressure without identifiable initiator"
				return res.stop(r, false)
			}
			p := current[bottleneck]
			next := int(float64(p) * scaleFactor)
			if next <= p {
				next = p + 1
			}
			if next > maxParallelism {
				r.Diagnosis = fmt.Sprintf("bottleneck %s already at max parallelism", bottleneck)
				return res.stop(r, false)
			}
			r.Diagnosis = fmt.Sprintf("backpressure at %s: scale %d → %d", bottleneck, p, next)
			current[bottleneck] = next
		default:
			// No backpressure but SLO missed: the source itself does
			// not offer enough traffic; scaling cannot help.
			r.Diagnosis = "SLO missed without backpressure: source-limited"
			return res.stop(r, false)
		}
		res.Rounds = append(res.Rounds, r)
	}
	res.Reason = "round budget exhausted"
	res.FinalParallelisms = maps.Clone(current)
	return res, nil
}

// Every deployment of either loop stabilises for stabiliseMinutes;
// Dhalion then measures scalerMeasureMinutes, and the tuner, which also
// calibrates from the run, tunerMeasureMinutes.
const (
	stabiliseMinutes     = 5
	scalerMeasureMinutes = 5
	tunerMeasureMinutes  = 7
)

// deploy runs one word-count deployment at rate and returns its summary
// measurement together with the deployment it was read from. Each call
// runs a fresh simulation to steady state, exactly the cost profile of
// a real deployment round (compressed in time).
func deploy(rate float64, parallelisms map[string]int, measureMinutes int) (Measurement, *metrics.Deployment, error) {
	d, err := metrics.DeployWordCount(heron.WordCountOptions{
		SpoutP:        parallelisms["spout"],
		SplitterP:     parallelisms["splitter"],
		CounterP:      parallelisms["counter"],
		RatePerMinute: rate,
	}, stabiliseMinutes, measureMinutes)
	if err != nil {
		return Measurement{}, nil, err
	}
	m := Measurement{ComponentBackpressureMs: map[string]float64{}}
	for _, c := range d.Topology.Components() {
		ss, err := d.SteadyState(c.Name)
		if err != nil {
			return Measurement{}, nil, err
		}
		m.ComponentBackpressureMs[c.Name] = ss.BackpressureMs
		if len(d.Topology.Outbound(c.Name)) == 0 {
			m.SinkThroughputTPM += ss.Execute
		}
	}
	if m.BackpressureMsPerMin, err = d.BackpressureMs(); err != nil {
		return Measurement{}, nil, err
	}
	return m, d, nil
}
