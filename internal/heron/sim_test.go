package heron

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

const minute = time.Minute

// perMinuteRate sums metric across all instances of a component and
// averages the per-minute values over minutes [warmup, totalMinutes).
func perMinuteRate(t *testing.T, s *Simulation, metric, component string, warmup, totalMinutes int) float64 {
	t.Helper()
	start := s.Start().Add(time.Duration(warmup) * minute)
	end := s.Start().Add(time.Duration(totalMinutes) * minute)
	series, err := s.DB().Downsample(metric, tsdb.Labels{"component": component}, start, end, minute, tsdb.AggSum, tsdb.AggSum)
	if err != nil {
		t.Fatalf("downsample %s/%s: %v", metric, component, err)
	}
	var sum float64
	for _, p := range series.Points {
		sum += p.V
	}
	return sum / float64(len(series.Points))
}

func runWordCount(t *testing.T, opts WordCountOptions, minutes int) *Simulation {
	t.Helper()
	s, err := NewWordCount(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Duration(minutes) * minute); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBelowSaturationNoBackpressure(t *testing.T) {
	// Offered 6 M/min, splitter p=1 SP is 10.8 M/min → linear regime.
	s := runWordCount(t, WordCountOptions{RatePerMinute: 6e6}, 10)
	in := perMinuteRate(t, s, MetricExecuteCount, "splitter", 2, 10)
	out := perMinuteRate(t, s, MetricEmitCount, "splitter", 2, 10)
	if math.Abs(in-6e6)/6e6 > 0.01 {
		t.Errorf("input = %.3g, want ≈6e6", in)
	}
	if ratio := out / in; math.Abs(ratio-SplitterAlpha) > 0.01 {
		t.Errorf("alpha = %.4f, want %.4f", ratio, SplitterAlpha)
	}
	bp := perMinuteRate(t, s, MetricBackpressureMs, "splitter", 2, 10)
	if bp != 0 {
		t.Errorf("backpressure = %g ms/min, want 0", bp)
	}
	tbp := perMinuteRate(t, s, MetricBackpressureMs, TopologyComponent, 2, 10)
	if tbp != 0 {
		t.Errorf("topology backpressure = %g ms/min, want 0", tbp)
	}
}

func TestAboveSaturationPlateausAndBackpressure(t *testing.T) {
	// Offered 15 M/min > SP 10.8 M/min.
	s := runWordCount(t, WordCountOptions{RatePerMinute: 15e6}, 12)
	in := perMinuteRate(t, s, MetricExecuteCount, "splitter", 4, 12)
	sp := SplitterServiceRate * 60.0
	if math.Abs(in-sp)/sp > 0.02 {
		t.Errorf("saturated input = %.4g, want ≈%.4g", in, sp)
	}
	out := perMinuteRate(t, s, MetricEmitCount, "splitter", 4, 12)
	st := sp * SplitterAlpha
	if math.Abs(out-st)/st > 0.02 {
		t.Errorf("saturated output = %.4g, want ST ≈%.4g", out, st)
	}
	// Bimodal backpressure: near the full minute.
	bp := perMinuteRate(t, s, MetricBackpressureMs, TopologyComponent, 4, 12)
	if bp < 50_000 {
		t.Errorf("topology backpressure = %.0f ms/min, want > 50000 (bimodal)", bp)
	}
	// The splitter is the initiator.
	sbp := perMinuteRate(t, s, MetricBackpressureMs, "splitter", 4, 12)
	if sbp < 50_000 {
		t.Errorf("splitter backpressure = %.0f ms/min, want > 50000", sbp)
	}
	// External backlog grows: offered exceeds capacity.
	backlog, err := s.DB().Latest(MetricBacklogTuples, tsdb.Labels{"component": "spout"})
	if err != nil {
		t.Fatal(err)
	}
	if backlog.V <= 0 {
		t.Errorf("backlog = %g, want positive", backlog.V)
	}
}

func TestBackpressureBimodality(t *testing.T) {
	// Sweep across SP: backpressure time per minute should be ≈0 below
	// and ≳50 000 ms above, with a steep transition (Fig. 6).
	for _, rate := range []float64{8e6, 10e6} {
		s := runWordCount(t, WordCountOptions{RatePerMinute: rate}, 8)
		bp := perMinuteRate(t, s, MetricBackpressureMs, TopologyComponent, 3, 8)
		if bp > 1000 {
			t.Errorf("rate %.0g: bp = %.0f ms, want ≈0", rate, bp)
		}
	}
	for _, rate := range []float64{12e6, 16e6, 20e6} {
		s := runWordCount(t, WordCountOptions{RatePerMinute: rate}, 8)
		bp := perMinuteRate(t, s, MetricBackpressureMs, TopologyComponent, 3, 8)
		if bp < 50_000 {
			t.Errorf("rate %.0g: bp = %.0f ms, want ≳50000", rate, bp)
		}
	}
}

func TestComponentSaturationScalesWithParallelism(t *testing.T) {
	// Splitter p=3 saturates near 3×SP (Eq. 9 / Fig. 7). Counter
	// parallelism is raised so the splitter stays the bottleneck.
	s := runWordCount(t, WordCountOptions{SplitterP: 3, CounterP: 6, RatePerMinute: 60e6}, 12)
	in := perMinuteRate(t, s, MetricExecuteCount, "splitter", 4, 12)
	want := 3 * SplitterServiceRate * 60.0
	if math.Abs(in-want)/want > 0.02 {
		t.Errorf("p=3 saturated input = %.4g, want ≈%.4g", in, want)
	}
}

func TestShuffleGroupingEvenSplit(t *testing.T) {
	s := runWordCount(t, WordCountOptions{SplitterP: 4, RatePerMinute: 8e6}, 6)
	// Each of 4 splitter instances gets ~2 M/min.
	for i := 0; i < 4; i++ {
		series, err := s.DB().Downsample(MetricExecuteCount,
			tsdb.Labels{"component": "splitter", "instance": string(rune('0' + i))},
			s.Start().Add(2*minute), s.Start().Add(6*minute), minute, tsdb.AggSum, tsdb.AggSum)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range series.Points {
			sum += p.V
		}
		got := sum / float64(len(series.Points))
		if math.Abs(got-2e6)/2e6 > 0.01 {
			t.Errorf("instance %d input = %.4g, want ≈2e6", i, got)
		}
	}
}

func TestFieldsGroupingBiasRespected(t *testing.T) {
	// Two keys, 75/25, both hashing to different counter instances at
	// p=2. Find the actual per-instance weights first.
	keys := ExplicitKeys{Probs: map[string]float64{"hot": 3, "cold": 1}}
	w := keys.Weights(2)
	if math.Abs(w[0]+w[1]-1) > 1e-12 {
		t.Fatalf("weights don't sum to 1: %v", w)
	}
	s := runWordCount(t, WordCountOptions{CounterP: 2, CounterKeys: keys, RatePerMinute: 2e6}, 6)
	for i := 0; i < 2; i++ {
		series, err := s.DB().Downsample(MetricArrivalCount,
			tsdb.Labels{"component": "counter", "instance": string(rune('0' + i))},
			s.Start().Add(2*minute), s.Start().Add(6*minute), minute, tsdb.AggSum, tsdb.AggSum)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range series.Points {
			sum += p.V
		}
		got := sum / float64(len(series.Points))
		want := 2e6 * SplitterAlpha * w[i]
		if want == 0 {
			if got != 0 {
				t.Errorf("instance %d got %.4g, want 0", i, got)
			}
			continue
		}
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("instance %d arrivals = %.4g, want ≈%.4g", i, got, want)
		}
	}
}

func TestTupleConservation(t *testing.T) {
	// Spout emits = splitter arrivals; splitter emits = counter
	// arrivals (shuffle and fields both conserve tuples).
	s := runWordCount(t, WordCountOptions{RatePerMinute: 5e6}, 8)
	spoutOut := perMinuteRate(t, s, MetricEmitCount, "spout", 1, 8)
	splitIn := perMinuteRate(t, s, MetricArrivalCount, "splitter", 1, 8)
	if math.Abs(spoutOut-splitIn)/spoutOut > 1e-9 {
		t.Errorf("spout out %.6g != splitter arrivals %.6g", spoutOut, splitIn)
	}
	splitOut := perMinuteRate(t, s, MetricEmitCount, "splitter", 1, 8)
	countIn := perMinuteRate(t, s, MetricArrivalCount, "counter", 1, 8)
	if math.Abs(splitOut-countIn)/splitOut > 1e-9 {
		t.Errorf("splitter out %.6g != counter arrivals %.6g", splitOut, countIn)
	}
}

func TestCPULoadLinearInInput(t *testing.T) {
	// §V-E: CPU load is linear in input rate below saturation.
	var rates, cpus []float64
	for _, r := range []float64{2e6, 4e6, 6e6, 8e6} {
		s := runWordCount(t, WordCountOptions{RatePerMinute: r}, 8)
		in := perMinuteRate(t, s, MetricExecuteCount, "splitter", 2, 8)
		cpuSeries, err := s.DB().Downsample(MetricCPULoad, tsdb.Labels{"component": "splitter"},
			s.Start().Add(2*minute), s.Start().Add(8*minute), minute, tsdb.AggMean, tsdb.AggSum)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range cpuSeries.Points {
			sum += p.V
		}
		rates = append(rates, in)
		cpus = append(cpus, sum/float64(len(cpuSeries.Points)))
	}
	// Check linearity: cpu/input ratio constant to 1%.
	base := cpus[0] / rates[0]
	for i := range rates {
		if ratio := cpus[i] / rates[i]; math.Abs(ratio-base)/base > 0.01 {
			t.Errorf("cpu/input ratio drifts: %.3g vs %.3g", ratio, base)
		}
	}
	// And the absolute value matches the profile's cost model.
	perTuplePerSec := SplitterCPUPerTuple + (1+SplitterAlpha)*SplitterGatewayPerTuple
	want := rates[1] / 60 * perTuplePerSec
	if math.Abs(cpus[1]-want)/want > 0.01 {
		t.Errorf("cpu = %.4g cores, want ≈%.4g", cpus[1], want)
	}
}

func TestSlowInstanceTriggersEarlierBackpressure(t *testing.T) {
	// A degraded splitter instance halves its service rate; at a rate
	// healthy p=2 would absorb (e.g. 16 M/min < 21.6 M/min), the slow
	// instance saturates (8 M/min share > 5.4 M/min capacity).
	s, err := NewWordCount(WordCountOptions{SplitterP: 2, RatePerMinute: 16e6})
	if err != nil {
		t.Fatal(err)
	}
	s.WithFaultInjector(&scriptInjector{to: 10 * minute, faults: map[topology.InstanceID]InstanceFault{
		{Component: "splitter", Index: 1}: {SlowFactor: 0.5},
	}})
	if err := s.Run(10 * minute); err != nil {
		t.Fatal(err)
	}
	bp := perMinuteRate(t, s, MetricBackpressureMs, TopologyComponent, 4, 10)
	if bp < 50_000 {
		t.Errorf("degraded instance: topology bp = %.0f ms, want ≳50000", bp)
	}
	healthy := runWordCount(t, WordCountOptions{SplitterP: 2, RatePerMinute: 16e6}, 10)
	hbp := perMinuteRate(t, healthy, MetricBackpressureMs, TopologyComponent, 4, 10)
	if hbp != 0 {
		t.Errorf("healthy p=2: bp = %.0f ms, want 0", hbp)
	}
}

func TestFailureRateDropsTuples(t *testing.T) {
	top, err := WordCountTopology(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := WordCountProfiles(UniformKeys{})
	p := profiles["splitter"]
	p.FailureRate = 0.1
	profiles["splitter"] = p
	s, err := New(Config{
		Topology:   top,
		Profiles:   profiles,
		SpoutRates: map[string]workload.RateSchedule{"spout": workload.ConstantRate(1e6 / 60)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(6 * minute); err != nil {
		t.Fatal(err)
	}
	executed := perMinuteRate(t, s, MetricExecuteCount, "splitter", 1, 6)
	failed := perMinuteRate(t, s, MetricFailCount, "splitter", 1, 6)
	emitted := perMinuteRate(t, s, MetricEmitCount, "splitter", 1, 6)
	if math.Abs(failed-0.1*executed)/executed > 1e-9 {
		t.Errorf("failed = %.4g, want 10%% of %.4g", failed, executed)
	}
	wantEmit := 0.9 * executed * SplitterAlpha
	if math.Abs(emitted-wantEmit)/wantEmit > 1e-9 {
		t.Errorf("emitted = %.4g, want %.4g", emitted, wantEmit)
	}
}

func TestAllAndGlobalGroupings(t *testing.T) {
	top, err := topology.NewBuilder("fan").
		AddSpout("s", 1).
		AddBolt("bcast", 3).
		AddBolt("sink", 2).
		Connect("s", "bcast", topology.AllGrouping).
		Connect("bcast", "sink", topology.GlobalGrouping).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	profiles := map[string]ComponentProfile{
		"s":     {ServiceRate: 1e5, Emits: map[string]EmitProfile{"default": {Alpha: 1}}},
		"bcast": {ServiceRate: 1e5, Emits: map[string]EmitProfile{"default": {Alpha: 1}}},
		"sink":  {ServiceRate: 1e6},
	}
	s, err := New(Config{
		Topology:   top,
		Profiles:   profiles,
		SpoutRates: map[string]workload.RateSchedule{"s": workload.ConstantRate(1000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(4 * minute); err != nil {
		t.Fatal(err)
	}
	// AllGrouping: every bcast instance sees the full 60 000/min.
	bIn := perMinuteRate(t, s, MetricArrivalCount, "bcast", 1, 4)
	if math.Abs(bIn-3*60000)/180000 > 1e-9 {
		t.Errorf("bcast total arrivals = %.5g, want 180000 (3 full copies)", bIn)
	}
	// GlobalGrouping: only sink instance 0 receives data.
	s0, err := s.DB().Aggregate(MetricArrivalCount, tsdb.Labels{"component": "sink", "instance": "0"},
		s.Start().Add(minute), s.Start().Add(4*minute), tsdb.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := s.DB().Aggregate(MetricArrivalCount, tsdb.Labels{"component": "sink", "instance": "1"},
		s.Start().Add(minute), s.Start().Add(4*minute), tsdb.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if s0 <= 0 || s1 != 0 {
		t.Errorf("global grouping: sink0=%.4g sink1=%.4g", s0, s1)
	}
}

func TestConfigValidation(t *testing.T) {
	top, err := WordCountTopology(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := WordCountProfiles(UniformKeys{})
	rates := map[string]workload.RateSchedule{"spout": workload.ConstantRate(1)}
	cases := []struct {
		name string
		mut  func(*Config)
		frag string
	}{
		{"nil topology", func(c *Config) { c.Topology = nil }, "nil topology"},
		{"missing profile", func(c *Config) {
			p := map[string]ComponentProfile{}
			for k, v := range profiles {
				p[k] = v
			}
			delete(p, "counter")
			c.Profiles = p
		}, "no profile"},
		{"missing rate", func(c *Config) { c.SpoutRates = map[string]workload.RateSchedule{} }, "no rate schedule"},
		{"rate for bolt", func(c *Config) {
			c.SpoutRates = map[string]workload.RateSchedule{"spout": workload.ConstantRate(1), "splitter": workload.ConstantRate(1)}
		}, "non-spout"},
		{"bad watermarks", func(c *Config) { c.HighWatermarkBytes, c.LowWatermarkBytes = 10, 20 }, "watermarks"},
		{"bad tick", func(c *Config) { c.Tick = -time.Second }, "tick"},
		{"window below tick", func(c *Config) { c.Tick = 2 * time.Minute }, "below tick"},
		{"bad service rate", func(c *Config) {
			p := map[string]ComponentProfile{}
			for k, v := range profiles {
				p[k] = v
			}
			sp := p["spout"]
			sp.ServiceRate = 0
			p["spout"] = sp
			c.Profiles = p
		}, "service rate"},
		// Every comparison with NaN is false, so these checks state
		// what New accepts, and NaN fails them.
		{"NaN watermarks", func(c *Config) { c.HighWatermarkBytes, c.LowWatermarkBytes = math.NaN(), math.NaN() }, "watermarks"},
		{"NaN high watermark", func(c *Config) { c.HighWatermarkBytes = math.NaN() }, "watermarks"},
		{"infinite high watermark", func(c *Config) { c.HighWatermarkBytes = math.Inf(1) }, "watermarks"},
		{"NaN service noise", func(c *Config) { c.ServiceNoiseStd = math.NaN() }, "service noise"},
		{"infinite service noise", func(c *Config) { c.ServiceNoiseStd = math.Inf(1) }, "service noise"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Topology: top, Profiles: profiles, SpoutRates: rates}
			c.mut(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q missing %q", err, c.frag)
			}
		})
	}
	// NewWordCount's constant rate: heronsim -rate NaN printed a table
	// of NaN, and -rate -5e6 simulated no load.
	for _, r := range []float64{math.NaN(), math.Inf(1), -5e6} {
		t.Run(fmt.Sprintf("word-count rate %g", r), func(t *testing.T) {
			_, err := NewWordCount(WordCountOptions{RatePerMinute: r})
			if err == nil || !strings.Contains(err.Error(), "source rate") {
				t.Errorf("error %v, want one naming the source rate", err)
			}
		})
	}
}

// TestTickMustDivideWindow refuses a tick that leaves the one-minute
// windows holding unequal numbers of ticks, naming the tick and the
// window: at 70 ms a spout offered 750,000 tuples/min reported 750,750,
// then 749,875 per window. Every tick the repo ships divides a minute.
func TestTickMustDivideWindow(t *testing.T) {
	for _, tick := range []time.Duration{70 * time.Millisecond, 7 * time.Second, 45 * time.Second} {
		_, err := NewWordCount(WordCountOptions{RatePerMinute: 750_000, Tick: tick})
		if err == nil || !strings.Contains(err.Error(), "tick "+tick.String()) || !strings.Contains(err.Error(), "1m0s metrics window") {
			t.Errorf("tick %s: error %v, want one naming the tick and the 1m0s metrics window", tick, err)
		}
	}
	for _, tick := range []time.Duration{30 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, time.Second, time.Minute} {
		sim := runWordCount(t, WordCountOptions{RatePerMinute: 750_000, Tick: tick}, 3)
		series, err := sim.DB().Query(MetricSourceCount, nil, time.Time{}, sim.Start().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		for _, sr := range series {
			for _, p := range sr.Points {
				if math.Abs(p.V-750_000/8) > 1e-6 {
					t.Errorf("tick %s: spout %s offered %g in the window ending %s, want %g", tick, sr.Labels["instance"], p.V, p.T, 750_000.0/8)
				}
			}
		}
	}
}

func TestRunRejectsNegativeDuration(t *testing.T) {
	s, err := NewWordCount(WordCountOptions{RatePerMinute: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(-time.Second); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestSnapshot(t *testing.T) {
	s := runWordCount(t, WordCountOptions{RatePerMinute: 15e6}, 3)
	snaps := s.Snapshot()
	if len(snaps) != 8+1+3 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	var splitterBP bool
	for _, sn := range snaps {
		if sn.PendingBytes < 0 || sn.QueueTuples < 0 || sn.Backlog < 0 {
			t.Errorf("negative state: %+v", sn)
		}
		if sn.ID.Component == "splitter" && sn.InBackpressure {
			splitterBP = true
		}
	}
	if !splitterBP {
		t.Error("overloaded splitter never in backpressure in snapshot")
	}
	if s.Elapsed() != 3*minute {
		t.Errorf("elapsed = %s", s.Elapsed())
	}
}

func TestKeyModelWeights(t *testing.T) {
	for _, km := range []KeyModel{UniformKeys{}, ZipfKeys{N: 500, S: 1.2, Seed: 1}, ExplicitKeys{Probs: map[string]float64{"a": 1, "b": 2, "c": 3}}} {
		for _, p := range []int{1, 2, 3, 7} {
			w := km.Weights(p)
			if len(w) != p {
				t.Fatalf("%T weights len = %d, want %d", km, len(w), p)
			}
			var sum float64
			for _, v := range w {
				if v < 0 {
					t.Errorf("%T negative weight %g", km, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%T p=%d weights sum %g", km, p, sum)
			}
		}
	}
	// Larger Zipf vocabularies are less biased than tiny ones (the
	// paper's key-diversity observation); the head key still carries
	// visible weight, so perfect uniformity is not expected.
	maxDev := func(w []float64) float64 {
		var d float64
		for _, v := range w {
			if dev := math.Abs(v - 1.0/float64(len(w))); dev > d {
				d = dev
			}
		}
		return d
	}
	large := maxDev(ZipfKeys{N: 6000, S: 1.1, Seed: 42}.Weights(4))
	small := maxDev(ZipfKeys{N: 8, S: 1.1, Seed: 42}.Weights(4))
	if large >= small {
		t.Errorf("bias should shrink with vocabulary: N=6000 dev %.3f, N=8 dev %.3f", large, small)
	}
	if large > 0.25 {
		t.Errorf("large-vocab max deviation = %.3f, want moderate (<0.25)", large)
	}
	// Empty explicit keys degrade to uniform.
	w := ExplicitKeys{}.Weights(3)
	for _, v := range w {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Errorf("empty ExplicitKeys weight = %g", v)
		}
	}
	// ZipfKeys with invalid params self-correct.
	w = ZipfKeys{N: 0, S: 0}.Weights(2)
	if math.Abs(w[0]+w[1]-1) > 1e-9 {
		t.Errorf("degenerate zipf weights = %v", w)
	}
}

// TestKeyModelsAreDeterministic holds KeyModel's contract bit for bit:
// an explicit table whose float sums depend on the order its keys are
// added in must still give the same weights on every call.
func TestKeyModelsAreDeterministic(t *testing.T) {
	probs := map[string]float64{}
	for i := 0; i < 50; i++ {
		probs["key-"+strconv.Itoa(i)] = 1 / float64(i+3)
	}
	for _, km := range []KeyModel{UniformKeys{}, ZipfKeys{N: 500, S: 1.2, Seed: 1}, ExplicitKeys{Probs: probs}} {
		first := km.Weights(4)
		for call := 0; call < 100; call++ {
			w := km.Weights(4)
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(first[i]) {
					t.Fatalf("%T call %d: weight %d = %v, first call gave %v", km, call, i, w[i], first[i])
				}
			}
		}
	}
}

func TestQuickSimConservesMassAtAnyRate(t *testing.T) {
	// Property: over any constant rate, tuples emitted by the spout
	// equal tuples arriving at the splitter, and the splitter's output
	// never exceeds ST.
	f := func(seed int64) bool {
		rate := 1e6 + float64(seed%16)*1e6 // 1–16 M/min
		if rate < 0 {
			rate = -rate
		}
		s, err := NewWordCount(WordCountOptions{RatePerMinute: rate, Tick: 200 * time.Millisecond})
		if err != nil {
			return false
		}
		if err := s.Run(5 * minute); err != nil {
			return false
		}
		spoutOut, err1 := s.DB().Aggregate(MetricEmitCount, tsdb.Labels{"component": "spout"}, s.Start(), s.Start().Add(5*minute), tsdb.AggSum)
		splitIn, err2 := s.DB().Aggregate(MetricArrivalCount, tsdb.Labels{"component": "splitter"}, s.Start(), s.Start().Add(5*minute), tsdb.AggSum)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(spoutOut-splitIn) > 1e-6*(1+spoutOut) {
			return false
		}
		splitOut, err3 := s.DB().Downsample(MetricEmitCount, tsdb.Labels{"component": "splitter"}, s.Start(), s.Start().Add(5*minute), minute, tsdb.AggSum, tsdb.AggSum)
		if err3 != nil {
			return false
		}
		st := SplitterServiceRate * 60 * SplitterAlpha
		for _, p := range splitOut.Points {
			if p.V > st*1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
