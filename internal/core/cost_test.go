package core

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"caladrius/internal/topology"
)

// costTestModel is a minimal calibrated two-component model.
func costTestModel(t *testing.T) *TopologyModel {
	t.Helper()
	b := topology.NewBuilder("t").AddSpout("s", 1)
	b.AddBolt("b", 1).Connect("s", "b", topology.ShuffleGrouping)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*ComponentModel{
		"s": {Component: "s", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: math.Inf(1)}},
		"b": {Component: "b", Parallelism: 1, Instance: InstanceModel{Alpha: 1, SP: math.Inf(1)}},
	}
	tm, err := NewTopologyModel(top, models)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestCostSamplerMeasuresWork(t *testing.T) {
	s := &CostSampler{}
	m := s.Begin()
	// Burn a little CPU and heap so every meter moves.
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := range buf {
			x += int(buf[i])
		}
	}
	c := s.End(m)
	_ = x
	if c.WallNanos < int64(5*time.Millisecond) {
		t.Errorf("wall = %v, want ≥ 5ms", c.Wall())
	}
	if runtime.GOOS == "linux" && c.CPUNanos <= 0 {
		t.Errorf("cpu = %v, want > 0 on linux", c.CPU())
	}
	if c.CPUNanos > 10*c.WallNanos {
		t.Errorf("cpu %v wildly exceeds wall %v", c.CPU(), c.Wall())
	}
	if c.AllocBytes < 1<<20 {
		t.Errorf("alloc bytes = %d, want ≥ 1MiB", c.AllocBytes)
	}
}

func TestPredictMeasuredRecordsCost(t *testing.T) {
	tm := costTestModel(t)
	st := &stageLog{}
	_, cost, err := tm.PredictMeasured(st, &CostSampler{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost.WallNanos <= 0 {
		t.Errorf("cost wall = %d, want > 0", cost.WallNanos)
	}
	if want := []string{"start predict", "end predict"}; !slices.Equal(st.events, want) {
		t.Errorf("stages = %q, want %q", st.events, want)
	}
	// A nil timer opens no stage.
	if _, _, err := tm.PredictMeasured(nil, &CostSampler{}, nil, 0); err != nil {
		t.Fatal(err)
	}
}

// stageLog is a StageTimer that logs each stage's start and end.
type stageLog struct{ events []string }

func (l *stageLog) StartStage(name string) func() {
	l.events = append(l.events, "start "+name)
	return func() { l.events = append(l.events, "end "+name) }
}
