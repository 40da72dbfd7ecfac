package heron

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"caladrius/internal/telemetry"
	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

// Calibrated performance constants for the paper's 3-stage word-count
// evaluation topology. Values are chosen so the simulator reproduces
// the scales of Figures 4–12:
//
//   - the splitter instance saturates near 11 M tuples/minute (Fig. 4)
//     and a parallelism-3 splitter component near 32 M (Fig. 7);
//   - the splitter's I/O coefficient is the corpus mean sentence
//     length, 7.635 (Fig. 5);
//   - the counter instance saturates near 68 M tuples/minute, putting
//     the parallelism-3 component's plateau near 205 M (Fig. 9);
//   - splitter instance CPU load reaches ≈1.13 cores at saturation so
//     a parallelism-3 component peaks near 3.4 cores (Fig. 11).
const (
	// SpoutServiceRate is the maximum pull rate of one spout instance
	// (tuples/second). It is set high so spouts are never the
	// bottleneck, as in the paper's special test spout.
	SpoutServiceRate = 5e6
	// SplitterServiceRate is one splitter instance's max processing
	// rate (tuples/second): 180 000/s = 10.8 M/minute.
	SplitterServiceRate = 180_000
	// SplitterAlpha is words emitted per sentence processed.
	SplitterAlpha = workload.GatsbyMeanSentenceLength
	// CounterServiceRate is one counter instance's max processing rate
	// (tuples/second): 1.14 M/s = 68.4 M/minute.
	CounterServiceRate = 1.14e6

	// SplitterCPUPerTuple and friends parameterise the linear CPU
	// model of §V-E.
	SplitterCPUPerTuple     = 4.5e-6
	SplitterGatewayPerTuple = 2.0e-7
	CounterCPUPerTuple      = 8.0e-7
	CounterGatewayPerTuple  = 0
	SpoutCPUPerTuple        = 1.0e-7
	SpoutGatewayPerTuple    = 1.0e-7

	// SentenceBytes and WordBytes size the pending queues.
	SentenceBytes = 250
	WordBytes     = 60
)

// WordCountOptions parameterises the paper's evaluation topology.
type WordCountOptions struct {
	// SpoutP, SplitterP, CounterP are component parallelisms. Defaults
	// 8 / 1 / 3 (the single-instance validation setup, §V-B: spout
	// parallelism 8 throughout the evaluation).
	SpoutP, SplitterP, CounterP int
	// Containers for round-robin packing. Default 2.
	Containers int
	// RatePerMinute is the constant total offered source rate in
	// tuples/minute. Ignored when Schedule is set.
	RatePerMinute float64
	// Schedule overrides RatePerMinute with a time-varying source.
	Schedule workload.RateSchedule
	// CounterKeys overrides the key model of the splitter→counter
	// fields-grouped stream. Default: UniformKeys, the paper's
	// "fortunately unbiased" dataset (§V-D). Use ZipfKeys or
	// ExplicitKeys to study biased datasets.
	CounterKeys KeyModel
	// ServiceNoiseStd and NoiseSeed forward to Config: per-tick
	// multiplicative capacity noise for realistic run-to-run variation.
	ServiceNoiseStd float64
	NoiseSeed       int64
	// Tick forwards to Config.
	Tick time.Duration
	// Metrics forwards to Config: the telemetry registry receiving
	// simulator event counters (nil disables them).
	Metrics *telemetry.Registry
}

func (o WordCountOptions) withDefaults() WordCountOptions {
	if o.SpoutP == 0 {
		o.SpoutP = 8
	}
	if o.SplitterP == 0 {
		o.SplitterP = 1
	}
	if o.CounterP == 0 {
		o.CounterP = 3
	}
	if o.Containers == 0 {
		o.Containers = 2
	}
	if o.CounterKeys == nil {
		o.CounterKeys = UniformKeys{}
	}
	return o
}

// wordCountName names the evaluation topology.
const wordCountName = "word-count"

// WordCountTopology builds the paper's 3-stage topology (Fig. 1a) with
// the given parallelisms.
func WordCountTopology(spoutP, splitterP, counterP int) (*topology.Topology, error) {
	return topology.NewBuilder(wordCountName).
		AddSpout("spout", spoutP).
		AddBolt("splitter", splitterP).
		AddBolt("counter", counterP).
		Connect("spout", "splitter", topology.ShuffleGrouping).
		Connect("splitter", "counter", topology.FieldsGrouping, "word").
		Build()
}

// WordCountProfiles returns the calibrated component profiles used by
// the evaluation, with the given key model on the splitter→counter
// stream.
func WordCountProfiles(counterKeys KeyModel) map[string]ComponentProfile {
	return map[string]ComponentProfile{
		"spout": {
			ServiceRate:        SpoutServiceRate,
			BytesPerTuple:      SentenceBytes,
			CPUPerTuple:        SpoutCPUPerTuple,
			GatewayCPUPerTuple: SpoutGatewayPerTuple,
			Emits:              map[string]EmitProfile{"default": {Alpha: 1}},
		},
		"splitter": {
			ServiceRate:        SplitterServiceRate,
			BytesPerTuple:      SentenceBytes,
			CPUPerTuple:        SplitterCPUPerTuple,
			GatewayCPUPerTuple: SplitterGatewayPerTuple,
			Emits:              map[string]EmitProfile{"default": {Alpha: SplitterAlpha, Keys: counterKeys}},
		},
		"counter": {
			ServiceRate:        CounterServiceRate,
			BytesPerTuple:      WordBytes,
			CPUPerTuple:        CounterCPUPerTuple,
			GatewayCPUPerTuple: CounterGatewayPerTuple,
		},
	}
}

// NewWordCount assembles a ready-to-run simulation of the evaluation
// topology.
func NewWordCount(opts WordCountOptions) (*Simulation, error) {
	opts = opts.withDefaults()
	top, err := WordCountTopology(opts.SpoutP, opts.SplitterP, opts.CounterP)
	if err != nil {
		return nil, err
	}
	plan, err := topology.RoundRobinPack(top, opts.Containers)
	if err != nil {
		return nil, err
	}
	schedule := opts.Schedule
	if schedule == nil {
		if r := opts.RatePerMinute; !(r >= 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("heron: source rate %g tuples/minute, want a finite rate ≥ 0", r)
		}
		schedule = workload.ConstantRate(opts.RatePerMinute / 60)
	}
	return New(Config{
		Topology:        top,
		Plan:            plan,
		Profiles:        WordCountProfiles(opts.CounterKeys),
		SpoutRates:      map[string]workload.RateSchedule{"spout": schedule},
		Tick:            opts.Tick,
		ServiceNoiseStd: opts.ServiceNoiseStd,
		NoiseSeed:       opts.NoiseSeed,
		Metrics:         opts.Metrics,
	})
}

// wordCountPlan rebuilds the evaluation topology and its packing plan
// from the labels of a snapshot's per-instance series, skipping the
// topology-wide pseudo-component. A component's parallelism p is its
// number of series, each a distinct instance 0..p−1 in the container
// round-robin packing over the n distinct container labels, 0..n−1,
// puts it.
func wordCountPlan(series []tsdb.Series) (*topology.Topology, *topology.PackingPlan, error) {
	p := map[string]int{"spout": 0, "splitter": 0, "counter": 0}
	containers := map[string]bool{}
	for _, s := range series {
		l := s.Labels
		c := l["component"]
		switch _, ok := p[c]; {
		case c == TopologyComponent:
			continue
		case l["topology"] != wordCountName:
			return nil, nil, fmt.Errorf("topology %q, want %q", l["topology"], wordCountName)
		case !ok:
			return nil, nil, fmt.Errorf("component %q is not one of %s's", c, wordCountName)
		}
		p[c]++
		containers[l["container"]] = true
	}
	n := len(containers)
	for c := range containers {
		if i, err := strconv.Atoi(c); err != nil || strconv.Itoa(i) != c || i < 0 || i >= n {
			return nil, nil, fmt.Errorf("container %q among %d distinct: want containers 0..%d", c, n, n-1)
		}
	}
	top, err := WordCountTopology(p["spout"], p["splitter"], p["counter"])
	if err != nil {
		return nil, nil, err
	}
	plan, err := topology.RoundRobinPack(top, n)
	if err != nil {
		return nil, nil, err
	}
	want := map[[3]string]bool{}
	for _, id := range top.Instances() {
		c, _ := plan.ContainerOf(id)
		want[[3]string{id.Component, strconv.Itoa(id.Index), strconv.Itoa(c)}] = true
	}
	for _, s := range series {
		l := s.Labels
		k := [3]string{l["component"], l["instance"], l["container"]}
		if k[0] == TopologyComponent {
			continue
		}
		if !want[k] {
			return nil, nil, fmt.Errorf("%s instance %q in container %q: want each of instances 0..%d once, packed round-robin over %d containers",
				k[0], k[1], k[2], p[k[0]]-1, n)
		}
		delete(want, k)
	}
	return top, plan, nil
}
