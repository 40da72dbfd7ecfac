package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"caladrius/internal/topology"
)

// randomChainModel builds a random linear topology with calibrated
// models, for property testing the composite predictions.
func randomChainModel(r *rand.Rand) (*TopologyModel, error) {
	n := 2 + r.Intn(4) // bolts
	b := topology.NewBuilder("chain").AddSpout("s", 1+r.Intn(4))
	prev := "s"
	models := map[string]*ComponentModel{
		"s": {Component: "s", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: math.Inf(1)}},
	}
	models["s"].Parallelism = 1
	for i := 0; i < n; i++ {
		name := "b" + string(rune('0'+i))
		p := 1 + r.Intn(5)
		b.AddBolt(name, p).Connect(prev, name, topology.ShuffleGrouping)
		sp := math.Inf(1)
		if r.Intn(2) == 0 {
			sp = 1e5 + r.Float64()*1e7
		}
		models[name] = &ComponentModel{
			Component:   name,
			Parallelism: p,
			Instance:    InstanceModel{Alpha: 0.1 + r.Float64()*10, SP: sp},
			CPUPsi:      r.Float64() * 1e-6,
		}
		prev = name
	}
	top, err := b.Build()
	if err != nil {
		return nil, err
	}
	return NewTopologyModel(top, models)
}

func TestQuickPredictMonotoneInRate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm, err := randomChainModel(r)
		if err != nil {
			return false
		}
		prev := -1.0
		for _, rate := range []float64{0, 1e5, 1e6, 5e6, 2e7, 1e8} {
			pred, err := tm.Predict(nil, rate)
			if err != nil {
				return false
			}
			if pred.SinkThroughput < prev-1e-9 {
				return false // sink throughput must be non-decreasing in t0
			}
			prev = pred.SinkThroughput
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickRiskFlipsExactlyAtSaturation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm, err := randomChainModel(r)
		if err != nil {
			return false
		}
		probe, err := tm.Predict(nil, 1)
		if err != nil {
			return false
		}
		t0sat := probe.SaturationSource
		if math.IsInf(t0sat, 1) {
			// Unsaturatable chain: always low risk.
			pred, err := tm.Predict(nil, 1e12)
			return err == nil && pred.Risk == RiskLow
		}
		below, err1 := tm.Predict(nil, t0sat*0.8) // outside the 10% margin
		above, err2 := tm.Predict(nil, t0sat*1.1)
		if err1 != nil || err2 != nil {
			return false
		}
		return below.Risk == RiskLow && above.Risk == RiskHigh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSinkThroughputClampsAtSaturation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm, err := randomChainModel(r)
		if err != nil {
			return false
		}
		probe, err := tm.Predict(nil, 1)
		if err != nil {
			return false
		}
		t0sat := probe.SaturationSource
		if math.IsInf(t0sat, 1) {
			return true
		}
		atSat, err1 := tm.Predict(nil, t0sat)
		deep, err2 := tm.Predict(nil, t0sat*100)
		if err1 != nil || err2 != nil {
			return false
		}
		// Above saturation the sink throughput stays at its clamp.
		return math.Abs(deep.SinkThroughput-atSat.SinkThroughput) <= 1e-6*(1+atSat.SinkThroughput)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickPredictionScalesWithParallelism: Eq. 9 is linear in the
// parallelism, so scaling every component's parallelism and the source
// rate by k scales the saturation point and the sink throughput by k
// and leaves the backpressure risk as it was.
func TestQuickPredictionScalesWithParallelism(t *testing.T) {
	scaled := func(want, got float64, k int) bool {
		if math.IsInf(want, 1) {
			return math.IsInf(got, 1)
		}
		return math.Abs(got-float64(k)*want) <= 1e-9*float64(k)*want
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm, err := randomChainModel(r)
		if err != nil {
			return false
		}
		rate := r.Float64() * 2e7
		base, err := tm.Predict(nil, rate)
		if err != nil {
			return false
		}
		for k := 1; k <= 4; k++ {
			ps := map[string]int{}
			for _, c := range tm.topo.Components() {
				ps[c.Name] = k * c.Parallelism
			}
			got, err := tm.Predict(ps, float64(k)*rate)
			if err != nil || got.Risk != base.Risk ||
				!scaled(base.SaturationSource, got.SaturationSource, k) ||
				!scaled(base.SinkThroughput, got.SinkThroughput, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickCPUMonotoneInParallelismAtFixedRate(t *testing.T) {
	// More parallelism never lowers modelled throughput, so CPU (ψ ×
	// input) is non-decreasing in p.
	c := &ComponentModel{Component: "c", Parallelism: 2, Instance: InstanceModel{Alpha: 2, SP: 1e6}, CPUPsi: 1e-7}
	f := func(rateRaw uint32, p1Raw, p2Raw uint8) bool {
		rate := float64(rateRaw%100) * 1e5
		p1, p2 := 1+int(p1Raw%16), 1+int(p2Raw%16)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		cpu1, err1 := c.CPU(p1, rate)
		cpu2, err2 := c.CPU(p2, rate)
		return err1 == nil && err2 == nil && cpu1 <= cpu2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickInverseOutputRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := &ComponentModel{
			Component:   "c",
			Parallelism: 1 + r.Intn(6),
			Instance:    InstanceModel{Alpha: 0.1 + r.Float64()*10, SP: 1e5 + r.Float64()*1e7},
		}
		p := 1 + r.Intn(6)
		// Linear region round trip.
		rate := r.Float64() * c.SaturationSource(p) * 0.99
		out := c.Output(p, rate)
		back := c.InverseOutput(p, out)
		return math.Abs(back-rate) <= 1e-9*(1+rate)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
