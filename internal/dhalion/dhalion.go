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
// The package is deliberately engine-agnostic: it drives any Deployer,
// and the heron-simulator implementation lives alongside so benchmarks
// can race Dhalion's round count against Caladrius' single dry-run
// iteration.
package dhalion

import (
	"errors"
	"fmt"

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

// Deployer deploys a configuration and measures its stabilised
// behaviour. Each call represents a full deploy-stabilise-measure
// round.
type Deployer interface {
	Deploy(parallelisms map[string]int) (Measurement, error)
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
	res.FinalParallelisms = cloneInts(r.Parallelisms)
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
	// SLOThroughputTPM is the required sink throughput.
	SLOThroughputTPM float64
	// MaxRounds bounds the loop. Default 12.
	MaxRounds int
}

// Run executes the scaling loop from the initial configuration.
func (s Scaler) Run(initial map[string]int, d Deployer) (Result, error) {
	if s.SLOThroughputTPM <= 0 {
		return Result{}, fmt.Errorf("dhalion: non-positive SLO %g", s.SLOThroughputTPM)
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds
	}
	if d == nil {
		return Result{}, errors.New("dhalion: nil deployer")
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
		m, err := d.Deploy(cloneInts(current))
		if err != nil {
			return res, fmt.Errorf("dhalion: round %d deploy: %w", round+1, err)
		}
		r := Round{Parallelisms: cloneInts(current), Measurement: m}

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
	res.FinalParallelisms = cloneInts(current)
	return res, nil
}

func cloneInts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// WordCountDeployer deploys word-count configurations on the heron
// simulator: each Deploy runs a fresh simulation to steady state and
// summarises it, exactly the cost profile of a real deployment round
// (compressed in time).
type WordCountDeployer struct {
	// RatePerMinute is the offered source rate.
	RatePerMinute float64
}

// Deploy implements Deployer: it waits stabiliseMinutes and measures
// scalerMeasureMinutes.
func (w WordCountDeployer) Deploy(parallelisms map[string]int) (Measurement, error) {
	m, _, err := deploy(w.RatePerMinute, parallelisms, scalerMeasureMinutes)
	return m, err
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
// measurement together with the deployment it was read from.
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
	for _, comp := range []string{"spout", "splitter", "counter"} {
		ss, err := d.SteadyState(comp)
		if err != nil {
			return Measurement{}, nil, err
		}
		m.ComponentBackpressureMs[comp] = ss.BackpressureMs
		if comp == "counter" {
			m.SinkThroughputTPM = ss.Execute
		}
	}
	if m.BackpressureMsPerMin, err = d.BackpressureMs(); err != nil {
		return Measurement{}, nil, err
	}
	return m, d, nil
}
