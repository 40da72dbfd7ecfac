package metrics

import (
	"math"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/topology"
	"caladrius/internal/workload"
)

// diamond is a fan-out/fan-in topology in the shape of internal/core's
// diamond test: the spout replicates onto a slow heavy branch and a
// fast light branch, both feeding a join sink. At 6 M tuples/minute the
// single heavy instance (SP 3 M/minute) saturates.
func diamond() (*heron.Simulation, error) {
	top, err := topology.NewBuilder("diamond").
		AddSpout("src", 4).
		AddBolt("heavy", 1).
		AddBolt("light", 1).
		AddBolt("join", 4).
		ConnectStream("to-heavy", "src", "heavy", topology.ShuffleGrouping).
		ConnectStream("to-light", "src", "light", topology.ShuffleGrouping).
		Connect("heavy", "join", topology.ShuffleGrouping).
		Connect("light", "join", topology.ShuffleGrouping).
		Build()
	if err != nil {
		return nil, err
	}
	return heron.New(heron.Config{
		Topology: top,
		Profiles: map[string]heron.ComponentProfile{
			"src": {ServiceRate: 2e6, BytesPerTuple: 200, CPUPerTuple: 1e-7,
				Emits: map[string]heron.EmitProfile{"to-heavy": {Alpha: 1}, "to-light": {Alpha: 1}}},
			"heavy": {ServiceRate: 50_000, BytesPerTuple: 200, CPUPerTuple: 1e-5,
				Emits: map[string]heron.EmitProfile{"default": {Alpha: 2}}},
			"light": {ServiceRate: 200_000, BytesPerTuple: 200, CPUPerTuple: 2e-6,
				Emits: map[string]heron.EmitProfile{"default": {Alpha: 0.5}}},
			"join": {ServiceRate: 2e6, BytesPerTuple: 100, CPUPerTuple: 2e-7},
		},
		SpoutRates:      map[string]workload.RateSchedule{"src": workload.ConstantRate(6e6 / 60)},
		ServiceNoiseStd: 0.015,
		NoiseSeed:       7,
	})
}

// simulate builds a simulation and runs it for minutes.
func simulate(t *testing.T, build func() (*heron.Simulation, error), minutes int) *heron.Simulation {
	t.Helper()
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Duration(minutes) * time.Minute); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeployWordCountMatchesHandRun: a deployment reads the same window,
// steady state and topology backpressure as running the simulation by
// hand and summarising it, bit for bit — for word-count through its
// preset, for a diamond with fan-out and fan-in, and for a simulation
// that already ran before it was deployed, whose window starts where
// it stood.
func TestDeployWordCountMatchesHandRun(t *testing.T) {
	opts := heron.WordCountOptions{SplitterP: 1, CounterP: 3, RatePerMinute: 15e6, ServiceNoiseStd: 0.015, NoiseSeed: 7}
	wordCount := func() (*heron.Simulation, error) { return heron.NewWordCount(opts) }
	cases := []struct {
		name, topology string
		build          func() (*heron.Simulation, error)
		ran            int // minutes the simulation ran before it was deployed
	}{
		{"word-count", "word-count", wordCount, 0},
		{"diamond", "diamond", diamond, 0},
		{"continued", "word-count", wordCount, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var d *Deployment
			var err error
			if c.name == "word-count" { // through the preset
				d, err = DeployWordCount(opts, 3, 4)
			} else {
				d, err = Deploy(simulate(t, c.build, c.ran), 3, 4)
			}
			if err != nil {
				t.Fatal(err)
			}
			s := simulate(t, c.build, c.ran+7)
			start := s.Start().Add(time.Duration(c.ran) * time.Minute)
			if !d.Start.Equal(start) || !d.AsOf.Equal(start.Add(7*time.Minute)) || d.Warmup != 3 {
				t.Fatalf("window [%s, %s) warm-up %d, want [%s, +7m) warm-up 3", d.Start, d.AsOf, d.Warmup, start)
			}
			hand := s.Substrate()
			if d.Topology.Name() != c.topology || d.Plan.InstanceCount() != hand.Plan.InstanceCount() {
				t.Fatalf("topology %s with %d instances packed, want %s with %d", d.Topology.Name(), d.Plan.InstanceCount(), c.topology, hand.Plan.InstanceCount())
			}
			p := provider(t, s)
			for _, comp := range hand.Topology.Components() {
				if got := d.Topology.Component(comp.Name); got == nil || got.Parallelism != comp.Parallelism {
					t.Fatalf("component %+v, want %+v", got, comp)
				}
				ws, err := p.ComponentWindows(c.topology, comp.Name, start, d.AsOf)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Summarise(ws, 3)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := d.SteadyState(comp.Name); err != nil || got != want {
					t.Errorf("SteadyState(%s) = %+v, %v; want %+v", comp.Name, got, err, want)
				}
			}
			pts, err := p.TopologyBackpressureMs(c.topology, start.Add(3*time.Minute), d.AsOf)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, pt := range pts {
				sum += pt.V
			}
			bp, err := d.BackpressureMs()
			if err != nil || bp != sum/float64(len(pts)) || bp < 45_000 {
				t.Errorf("BackpressureMs = %g, %v; want %g, saturated (≳45 000)", bp, err, sum/float64(len(pts)))
			}
			if _, err := d.SteadyState("mapper"); err == nil {
				t.Error("steady state of a component the topology lacks")
			}
		})
	}
}

// TestDeployAfterUpdate: a `heron update` followed by a deployment
// measures the updated topology from the update instant. Word-count
// saturates its one splitter at 15 M tuples/minute; scaled out to two,
// the measured window carries the new plan and the full offered load.
func TestDeployAfterUpdate(t *testing.T) {
	sim := simulate(t, func() (*heron.Simulation, error) {
		return heron.NewWordCount(heron.WordCountOptions{SplitterP: 1, RatePerMinute: 15e6})
	}, 8)
	if _, err := sim.Update(map[string]int{"splitter": 2}, false); err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(sim, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Start().Add(8 * time.Minute)
	if !d.Start.Equal(start) || !d.AsOf.Equal(start.Add(5*time.Minute)) {
		t.Fatalf("window [%s, %s), want [%s, +5m)", d.Start, d.AsOf, start)
	}
	if d.Plan.Version != 2 || d.Topology.Component("splitter").Parallelism != 2 {
		t.Fatalf("deployed plan version %d with splitter ×%d, want version 2 with ×2",
			d.Plan.Version, d.Topology.Component("splitter").Parallelism)
	}
	ss, err := d.SteadyState("splitter")
	if err != nil {
		t.Fatal(err)
	}
	if ss.Windows != 3 || math.Abs(ss.Execute-15e6)/15e6 > 0.03 {
		t.Errorf("splitter steady state %+v, want 3 windows executing ≈15e6", ss)
	}
	if bp, err := d.BackpressureMs(); err != nil || bp > 1000 {
		t.Errorf("BackpressureMs = %g, %v; want ≤ 1000 after scaling out", bp, err)
	}
}
