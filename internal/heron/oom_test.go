package heron

import (
	"testing"
	"time"

	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

// oomTopology builds a word-count variant whose splitter has a tiny RAM
// allocation, so its queue exceeds the container limit before the
// backpressure watermark is reached (§V-E's "instances may exceed the
// container memory limit" failure mode).
func oomTopology(t *testing.T, splitterRAMMB int) *topology.Topology {
	t.Helper()
	top, err := topology.NewBuilder("word-count").
		AddSpout("spout", 8).
		AddBoltWithResources("splitter", 1, topology.Resources{CPUCores: 1, RAMMB: splitterRAMMB}).
		AddBolt("counter", 3).
		Connect("spout", "splitter", topology.ShuffleGrouping).
		Connect("splitter", "counter", topology.FieldsGrouping, "word").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestOOMRestartsUnderMemoryPressure(t *testing.T) {
	// 40 MB allocation: the 100 MB high watermark is unreachable, so
	// the overloaded splitter crash-loops instead of backpressuring.
	top := oomTopology(t, 40)
	sim, err := New(Config{
		Topology:   top,
		Profiles:   WordCountProfiles(UniformKeys{}),
		SpoutRates: map[string]workload.RateSchedule{"spout": workload.ConstantRate(15e6 / 60)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(8 * time.Minute); err != nil {
		t.Fatal(err)
	}
	db := sim.DB()
	restarts, err := db.Aggregate(MetricRestartCount, tsdb.Labels{"component": "splitter"},
		sim.Start(), sim.Start().Add(8*time.Minute), tsdb.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if restarts < 3 {
		t.Errorf("restarts = %g, want a crash loop", restarts)
	}
	// Queued tuples are lost on each restart.
	failed, err := db.Aggregate(MetricFailCount, tsdb.Labels{"component": "splitter"},
		sim.Start(), sim.Start().Add(8*time.Minute), tsdb.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if failed <= 0 {
		t.Errorf("failed = %g, want lost tuples", failed)
	}
	// Backpressure never engages: the instance dies before the
	// watermark.
	bp, err := db.Aggregate(MetricBackpressureMs, tsdb.Labels{"component": "splitter"},
		sim.Start(), sim.Start().Add(8*time.Minute), tsdb.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if bp > 0 {
		t.Errorf("backpressure = %g ms with 40MB RAM < 100MB watermark", bp)
	}
}

func TestNoOOMWithDefaultResources(t *testing.T) {
	// The default 2 GB allocation never OOMs: watermarks cap the queue
	// at 100 MB.
	sim, err := NewWordCount(WordCountOptions{RatePerMinute: 20e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	restarts, err := sim.DB().Aggregate(MetricRestartCount, nil,
		sim.Start(), sim.Start().Add(6*time.Minute), tsdb.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if restarts != 0 {
		t.Errorf("restarts = %g with default resources", restarts)
	}
}
