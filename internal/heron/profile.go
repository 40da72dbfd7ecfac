// Package heron is a deterministic discrete-time simulator of a
// Heron-like distributed stream processing system. It is the substrate
// Caladrius' models are calibrated against and validated on, standing
// in for the Apache Heron + Aurora cluster of the paper's evaluation.
//
// The simulator reproduces the performance phenomenology the paper's
// models rest on (Fig. 3):
//
//   - every instance processes tuples at a bounded service rate, so an
//     instance's output rate is linear in its input rate (slope α, the
//     I/O coefficient of its logic) up to a saturation point (SP),
//     beyond which the output holds at the saturation throughput
//     ST = α·SP;
//   - each instance buffers pending tuples; when the buffered bytes
//     exceed the high watermark (100 MB by default) a backpressure
//     signal is broadcast to all stream managers and the spouts stop
//     forwarding, until the buffer drains below the low watermark
//     (50 MB);
//   - while spouts are stopped, the external source accumulates a
//     backlog which the spout then drains at its maximum pull rate, so
//     above the SP the topology re-enters backpressure almost
//     immediately — the per-minute "backpressure time" metric is
//     therefore bimodal (≈0 or ≈60 s), exactly as §IV-B1 observes;
//   - instance CPU load is linear in its input rate (processing cost
//     per tuple plus a gateway cost per transferred tuple).
//
// Tuples flow as fluid quantities (fractional tuples per tick) rather
// than individual messages, which keeps multi-hour simulations of
// multi-million-tuples-per-minute topologies fast and exactly
// reproducible.
package heron

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// EmitProfile describes one output stream of a component.
type EmitProfile struct {
	// Alpha is the I/O coefficient: average tuples emitted on this
	// stream per input tuple processed (per downstream *component*;
	// AllGrouping replicates it to every downstream instance).
	Alpha float64
	// Keys models the key distribution of tuples on this stream, used
	// to derive fields-grouping routing weights. Nil means uniform.
	Keys KeyModel
}

// ComponentProfile describes the performance characteristics of one
// component's instances. All instances of a component share a profile
// (they run the same code), matching §IV-B2.
type ComponentProfile struct {
	// ServiceRate is the maximum tuples per second one instance can
	// process; it determines the instance's saturation point. For
	// spouts it is the maximum pull rate from the external source.
	ServiceRate float64
	// BytesPerTuple sizes pending-queue occupancy for watermark
	// accounting. Default 250 bytes.
	BytesPerTuple float64
	// CPUPerTuple is CPU-seconds consumed per processed tuple.
	CPUPerTuple float64
	// GatewayCPUPerTuple is CPU-seconds per tuple moved through the
	// instance's gateway thread (input + output), modelling the
	// gateway/worker competition the paper observes in Fig. 5.
	GatewayCPUPerTuple float64
	// FailureRate is the fraction of processed tuples that fail in
	// user logic (dropped, not emitted); one of the four golden
	// signals ("Errors").
	FailureRate float64
	// Emits maps outbound stream name → emit profile. Streams the
	// topology declares but the profile omits default to Alpha 1.
	Emits map[string]EmitProfile
}

func (p ComponentProfile) withDefaults() ComponentProfile {
	if p.BytesPerTuple <= 0 {
		p.BytesPerTuple = 250
	}
	return p
}

func (p ComponentProfile) validate(name string) error {
	if p.ServiceRate <= 0 {
		return fmt.Errorf("heron: component %q non-positive service rate %g", name, p.ServiceRate)
	}
	if p.FailureRate < 0 || p.FailureRate >= 1 {
		return fmt.Errorf("heron: component %q failure rate %g outside [0,1)", name, p.FailureRate)
	}
	if p.CPUPerTuple < 0 || p.GatewayCPUPerTuple < 0 {
		return fmt.Errorf("heron: component %q negative CPU cost", name)
	}
	for stream, e := range p.Emits {
		if e.Alpha < 0 {
			return fmt.Errorf("heron: component %q stream %q negative alpha %g", name, stream, e.Alpha)
		}
	}
	return nil
}

// alphaFor returns the emit profile for a stream, defaulting to
// alpha 1 with uniform keys.
func (p ComponentProfile) alphaFor(stream string) EmitProfile {
	if e, ok := p.Emits[stream]; ok {
		return e
	}
	return EmitProfile{Alpha: 1}
}

// KeyModel describes the distribution of grouping keys on a stream and
// yields fields-grouping routing weights for a given downstream
// parallelism. Implementations must be deterministic.
type KeyModel interface {
	// Weights returns a length-p vector of non-negative routing
	// fractions summing to 1: element i is the share of tuples routed
	// to downstream instance i.
	Weights(p int) []float64
}

// UniformKeys models a perfectly balanced key set: every downstream
// instance receives an equal share regardless of parallelism. This is
// the "unbiased data set" case of §IV-B2b, where fields grouping
// behaves like shuffle (Equation 9).
type UniformKeys struct{}

// Weights implements KeyModel.
func (UniformKeys) Weights(p int) []float64 {
	w := make([]float64, p)
	for i := range w {
		w[i] = 1 / float64(p)
	}
	return w
}

// ZipfKeys models a realistic skewed vocabulary: N distinct keys with
// Zipf(s) frequencies, each key routed by hash modulo the downstream
// parallelism — exactly how Heron's fields grouping picks an instance.
// With a large N the induced per-instance bias is small (the paper's
// observation about Twitter-scale key diversity); with a small N it is
// visible, which the fields-grouping model tests exploit.
type ZipfKeys struct {
	// N is the number of distinct keys. Must be ≥ 1.
	N int
	// S is the Zipf exponent (> 1); default 1.1.
	S float64
	// Seed varies the synthetic key identities (and hence their
	// hashes) deterministically.
	Seed int64
}

// Weights implements KeyModel.
func (z ZipfKeys) Weights(p int) []float64 {
	if z.N < 1 {
		z.N = 1
	}
	s := z.S
	if s <= 1 {
		s = 1.1
	}
	// Zipf pmf: P(k) ∝ 1/k^s for rank k = 1..N.
	probs := make([]float64, z.N)
	var norm float64
	for k := 1; k <= z.N; k++ {
		probs[k-1] = 1 / math.Pow(float64(k), s)
		norm += probs[k-1]
	}
	w := make([]float64, p)
	for k := 0; k < z.N; k++ {
		key := fmt.Sprintf("key-%d-%d", z.Seed, k)
		h := fnv.New32a()
		h.Write([]byte(key))
		w[int(h.Sum32())%p] += probs[k] / norm
	}
	return w
}

// ExplicitKeys routes by a caller-supplied per-key probability table,
// letting tests construct arbitrarily biased datasets. Keys are hashed
// like ZipfKeys.
type ExplicitKeys struct {
	// Probs maps key → relative frequency (normalised internally).
	Probs map[string]float64
}

// Weights implements KeyModel. Keys are summed in sorted order, so the
// float sums, and hence the weights, are the same on every call.
func (e ExplicitKeys) Weights(p int) []float64 {
	keys := make([]string, 0, len(e.Probs))
	for key := range e.Probs {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	w := make([]float64, p)
	var norm float64
	for _, key := range keys {
		norm += e.Probs[key]
	}
	if norm == 0 {
		return UniformKeys{}.Weights(p)
	}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write([]byte(key))
		w[int(h.Sum32())%p] += e.Probs[key] / norm
	}
	return w
}
