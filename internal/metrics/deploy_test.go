package metrics

import (
	"testing"
	"time"

	"caladrius/internal/heron"
)

// TestDeployWordCountMatchesHandRun: a deployment reads the same window,
// steady state and topology backpressure as running the simulation by
// hand and summarising it, bit for bit.
func TestDeployWordCountMatchesHandRun(t *testing.T) {
	opts := heron.WordCountOptions{SplitterP: 1, CounterP: 3, RatePerMinute: 15e6, ServiceNoiseStd: 0.015, NoiseSeed: 7}
	d, err := DeployWordCount(opts, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := runSim(t, opts, 7)
	if !d.Start.Equal(s.Start()) || !d.End.Equal(s.Start().Add(7*time.Minute)) || d.Warmup != 3 {
		t.Fatalf("window [%s, %s) warm-up %d, want [%s, +7m) warm-up 3", d.Start, d.End, d.Warmup, s.Start())
	}
	if d.Topology.Name() != "word-count" || d.Topology.Component("splitter").Parallelism != 1 {
		t.Fatalf("topology %s, splitter %+v", d.Topology.Name(), d.Topology.Component("splitter"))
	}
	p := provider(t, s)
	ws, err := p.ComponentWindows("word-count", "splitter", d.Start, d.End)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Summarise(ws, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.SteadyState("splitter"); err != nil || got != want {
		t.Errorf("SteadyState = %+v, %v; want %+v", got, err, want)
	}
	pts, err := p.TopologyBackpressureMs("word-count", d.Start.Add(3*time.Minute), d.End)
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
}
