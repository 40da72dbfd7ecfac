package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"caladrius/internal/topology"
)

// randomDAGModel builds a random topology with calibrated models, for
// property testing the composite predictions. One or two spouts feed
// two to five bolts, each reading one or two earlier components, so the
// DAG has chains, fan-out, fan-in and diamonds; half the fan-out
// components split their α into per-stream coefficients.
func randomDAGModel(r *rand.Rand) (*TopologyModel, error) {
	b := topology.NewBuilder("dag")
	models := map[string]*ComponentModel{}
	var names []string
	read := map[string]bool{}
	connect := func(from, to string) {
		b.Connect(from, to, topology.ShuffleGrouping)
		read[from] = true
	}
	spouts := 1 + r.Intn(2)
	for i := range spouts {
		name := "s" + strconv.Itoa(i)
		b.AddSpout(name, 1+r.Intn(4))
		models[name] = &ComponentModel{Component: name, Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: math.Inf(1)}}
		names = append(names, name)
	}
	for i := range 2 + r.Intn(4) {
		name := "b" + strconv.Itoa(i)
		p := 1 + r.Intn(5)
		b.AddBolt(name, p)
		from := names[r.Intn(len(names))]
		connect(from, name)
		if other := names[r.Intn(len(names))]; other != from && r.Intn(2) == 0 {
			connect(other, name)
		}
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
		names = append(names, name)
	}
	for _, s := range names[:spouts] {
		if !read[s] {
			connect(s, names[len(names)-1])
		}
	}
	top, err := b.Build()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		outs := top.Outbound(name)
		if len(outs) < 2 || r.Intn(2) == 0 {
			continue
		}
		m := models[name]
		weights := make([]float64, len(outs))
		var sum float64
		for j := range weights {
			weights[j] = 0.1 + r.Float64()
			sum += weights[j]
		}
		m.StreamAlphas = map[string]float64{}
		for j, s := range outs {
			m.StreamAlphas[StreamAlphaKey(s.Name, s.To)] = m.Instance.Alpha * weights[j] / sum
		}
	}
	return NewTopologyModel(top, models)
}

func TestQuickPredictMonotoneInRate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm, err := randomDAGModel(r)
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
		tm, err := randomDAGModel(r)
		if err != nil {
			return false
		}
		probe, err := tm.Predict(nil, 1)
		if err != nil {
			return false
		}
		t0sat := probe.SaturationSource
		if math.IsInf(t0sat, 1) {
			// Unsaturatable topology: always low risk.
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
		tm, err := randomDAGModel(r)
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
		tm, err := randomDAGModel(r)
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

// TestQuickOneComponentOneRow: a component's row totals every inbound
// stream, so it is the same on every path that reaches it.
func TestQuickOneComponentOneRow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm, err := randomDAGModel(r)
		if err != nil {
			return false
		}
		pred, err := tm.Predict(nil, r.Float64()*1e8)
		if err != nil {
			return false
		}
		rows := map[string]ComponentPrediction{}
		for _, pp := range pred.Paths {
			for _, row := range pp.Components {
				if first, ok := rows[row.Component]; ok && first != row {
					return false
				}
				rows[row.Component] = row
			}
		}
		return len(rows) == len(tm.nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickPlannerAndModelAgree: Predict at SuggestParallelism's plan
// keeps every component at or below 1/(1+h) of its saturation source
// rate, wherever that is finite.
func TestQuickPlannerAndModelAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm, err := randomDAGModel(r)
		if err != nil {
			return false
		}
		// The busiest component's rate stays under 1e8 tuples/minute,
		// which keeps the planned parallelisms small.
		maxGain := 0.0
		for _, n := range tm.nodes {
			maxGain = max(maxGain, n.gain)
		}
		rate, headroom := r.Float64()*1e8/maxGain, r.Float64()
		plan, err := tm.SuggestParallelism(rate, headroom)
		if err != nil {
			return false
		}
		pred, err := tm.Predict(plan, rate)
		if err != nil {
			return false
		}
		for _, pp := range pred.Paths {
			for _, row := range pp.Components {
				m, _ := tm.Component(row.Component)
				limit := m.SaturationSource(row.Parallelism) / (1 + headroom)
				if row.SourceRate > limit*(1+1e-12) {
					return false
				}
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
