package audit

import (
	"math"
	"testing"

	"caladrius/internal/core"
	"caladrius/internal/topology"
)

// twoPathModel is s → a → sinkA and s → b → sinkB, with the connection
// to a made first. b saturates at bSP (+Inf: never); the other
// components never saturate.
func twoPathModel(t *testing.T, bSP float64) *core.TopologyModel {
	t.Helper()
	b := topology.NewBuilder("two-path").AddSpout("s", 1)
	b.AddBolt("a", 1).Connect("s", "a", topology.ShuffleGrouping)
	b.AddBolt("sinkA", 1).Connect("a", "sinkA", topology.ShuffleGrouping)
	b.AddBolt("b", 2).Connect("s", "b", topology.ShuffleGrouping)
	b.AddBolt("sinkB", 1).Connect("b", "sinkB", topology.ShuffleGrouping)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	unsaturatable := core.InstanceModel{Alpha: 1, SP: math.Inf(1)}
	models := map[string]*core.ComponentModel{
		"s":     {Component: "s", Parallelism: 1, Instance: unsaturatable},
		"a":     {Component: "a", Parallelism: 1, Instance: unsaturatable},
		"sinkA": {Component: "sinkA", Parallelism: 1, Instance: unsaturatable},
		"b":     {Component: "b", Parallelism: 2, Instance: core.InstanceModel{Alpha: 1, SP: bSP}},
		"sinkB": {Component: "sinkB", Parallelism: 1, Instance: unsaturatable},
	}
	tm, err := core.NewTopologyModel(top, models)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestRunRecord checks the model-derived fields of a record: the sink
// is the critical path's last component even when that path is not the
// first, the degraded flag and calibration snapshot are the model's
// own, and an unsaturatable prediction's +Inf saturation source is
// written as the largest finite float.
func TestRunRecord(t *testing.T) {
	tm := twoPathModel(t, 1e6)
	tm.Degraded = true
	par := map[string]int{"b": 3}
	pred, err := tm.Predict(par, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	cp := pred.CriticalPath()
	if len(pred.Paths) != 2 || pred.Paths[0].Path[len(pred.Paths[0].Path)-1] == "sinkB" || cp.Path[len(cp.Path)-1] != "sinkB" {
		t.Fatalf("want the second path (to sinkB) critical, got paths %+v, critical %v", pred.Paths, cp.Path)
	}
	rec := RunRecord(tm, par, 2e6, pred)
	if rec.Predicted.Sink != "sinkB" {
		t.Errorf("sink = %q, want the critical path's sinkB", rec.Predicted.Sink)
	}
	if rec.Predicted.OutputTPM != cp.OutputRate || rec.Predicted.SinkTPM != pred.SinkThroughput {
		t.Errorf("predicted %+v, want output %g and sink throughput %g", rec.Predicted, cp.OutputRate, pred.SinkThroughput)
	}
	if rec.Predicted.SaturationSourceTPM != pred.SaturationSource || math.IsInf(pred.SaturationSource, 1) {
		t.Errorf("saturation source = %g, want the finite %g", rec.Predicted.SaturationSourceTPM, pred.SaturationSource)
	}
	if rec.Predicted.Bottleneck != "b" || rec.Predicted.Risk != string(pred.Risk) {
		t.Errorf("bottleneck %q risk %q, want b and %q", rec.Predicted.Bottleneck, rec.Predicted.Risk, pred.Risk)
	}
	if !rec.Degraded {
		t.Error("record of a degraded model not marked degraded")
	}
	if rec.SourceRateTPM != 2e6 || rec.Parallelism["b"] != 3 {
		t.Errorf("inputs = %g, %v, want 2e6 and b=3", rec.SourceRateTPM, rec.Parallelism)
	}
	snap := tm.CalibrationSnapshot()
	if len(rec.Calibration) != len(snap) || &rec.Calibration[0] != &snap[0] {
		t.Error("record's calibration is not the model's shared snapshot")
	}

	tm = twoPathModel(t, math.Inf(1))
	pred, err = tm.Predict(nil, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	rec = RunRecord(tm, nil, 2e6, pred)
	if got := rec.Predicted.SaturationSourceTPM; got != math.MaxFloat64 {
		t.Errorf("unsaturatable saturation source = %g, want math.MaxFloat64", got)
	}
	if rec.Degraded {
		t.Error("record of a clean model marked degraded")
	}
}
