package heron

import (
	"math"
	"strings"
	"testing"
	"time"

	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

func wordCountConfig(t *testing.T, splitterP int, ratePerMin float64) Config {
	t.Helper()
	top, err := WordCountTopology(4, splitterP, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topology:   top,
		Profiles:   WordCountProfiles(UniformKeys{}),
		SpoutRates: map[string]workload.RateSchedule{"spout": workload.ConstantRate(ratePerMin / 60)},
	}
}

func newSim(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, s *Simulation, d time.Duration) {
	t.Helper()
	if err := s.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateDryRun(t *testing.T) {
	s := newSim(t, wordCountConfig(t, 2, 6e6))
	plan, err := s.Update(map[string]int{"splitter": 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.InstanceCount() != 4+4+3 {
		t.Errorf("dry-run plan instances = %d", plan.InstanceCount())
	}
	if plan.Version != 2 {
		t.Errorf("dry-run plan version = %d", plan.Version)
	}
	// Dry run must not change the running topology.
	sub := s.Substrate()
	if sub.Topology.Component("splitter").Parallelism != 2 || sub.Plan.Version != 1 || sub.Plan.InstanceCount() != 4+2+3 {
		t.Error("dry run mutated the running topology")
	}
}

func TestUpdateScalesAndKeepsHistory(t *testing.T) {
	// Saturating rate for splitter p=1 (SP 10.8M).
	s := newSim(t, wordCountConfig(t, 1, 15e6))
	run(t, s, 8*time.Minute)
	// Scale out to absorb the traffic.
	plan, err := s.Update(map[string]int{"splitter": 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Version != 2 {
		t.Errorf("plan version = %d", plan.Version)
	}
	if sub := s.Substrate(); sub.Plan != plan || sub.Topology.Component("splitter").Parallelism != 2 {
		t.Error("update did not deploy its plan")
	}
	run(t, s, 8*time.Minute)
	if s.Elapsed() != 16*time.Minute {
		t.Fatalf("elapsed = %v", s.Elapsed())
	}
	// Metric history is continuous in one database: before the update
	// the splitter was saturated (execute pinned at 10.8M/min with
	// backpressure); after it, the full 15M flows without backpressure.
	db := s.DB()
	start := DefaultStart
	componentRate := func(from, to time.Time) float64 {
		ser, err := db.Downsample(MetricExecuteCount, tsdb.Labels{"component": "splitter"},
			from, to, time.Minute, tsdb.AggSum, tsdb.AggSum)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range ser.Points {
			sum += p.V
		}
		return sum / float64(len(ser.Points))
	}
	before := componentRate(start.Add(4*time.Minute), start.Add(8*time.Minute))
	if math.Abs(before-10.8e6)/10.8e6 > 0.03 {
		t.Errorf("pre-update execute = %.4g, want ≈10.8e6", before)
	}
	after := componentRate(start.Add(12*time.Minute), start.Add(16*time.Minute))
	// Component sum over 2 instances ≈ offered 15M.
	if math.Abs(after-15e6)/15e6 > 0.03 {
		t.Errorf("post-update execute = %.4g, want ≈15e6", after)
	}
	bpAfter, err := db.Aggregate(MetricBackpressureMs, tsdb.Labels{"component": TopologyComponent},
		start.Add(12*time.Minute), start.Add(16*time.Minute), tsdb.AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if bpAfter > 1000 {
		t.Errorf("post-update backpressure = %.0f ms", bpAfter)
	}
}

// TestUpdateContinuesSchedule: the spout schedule and the window grid
// run on across an update. Under a step from 2 M to 8 M tuples/minute
// at minute 10, an update at 13 m keeps offering 8 M, and the history
// holds one source window per whole minute, 0 through 17, none missing.
func TestUpdateContinuesSchedule(t *testing.T) {
	s, err := NewWordCount(WordCountOptions{Schedule: workload.StepRate(2e6/60, 8e6/60, 10*time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	run(t, s, 13*time.Minute)
	if _, err := s.Update(map[string]int{"counter": 4}, false); err != nil {
		t.Fatal(err)
	}
	run(t, s, 5*time.Minute)
	end := DefaultStart.Add(time.Hour)
	raw, err := s.DB().Query(MetricSourceCount, tsdb.Labels{"component": "spout"}, DefaultStart, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 8 {
		t.Fatalf("%d spout series, want 8", len(raw))
	}
	for _, r := range raw {
		if len(r.Points) != 18 {
			t.Fatalf("spout %s: %d source windows, want 18 (minutes 0–17)", r.Labels["instance"], len(r.Points))
		}
		for i, p := range r.Points {
			if want := DefaultStart.Add(time.Duration(i) * time.Minute); !p.T.Equal(want) {
				t.Fatalf("spout %s: window %d stamped %s, want %s", r.Labels["instance"], i, p.T.Sub(DefaultStart), want.Sub(DefaultStart))
			}
		}
	}
	ser, err := s.DB().Downsample(MetricSourceCount, tsdb.Labels{"component": "spout"},
		DefaultStart, end, time.Minute, tsdb.AggSum, tsdb.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ser.Points {
		want := 2e6
		if i >= 10 {
			want = 8e6
		}
		if math.Abs(p.V-want) > 1e-9*want {
			t.Errorf("minute %d offered %.6g tuples, want %.6g", i, p.V, want)
		}
	}
}

// TestUpdateInsideWindowRefused: an update off the minute grid would
// restart instances holding a partial window, so it is refused and the
// simulation keeps running its old plan.
func TestUpdateInsideWindowRefused(t *testing.T) {
	s := newSim(t, wordCountConfig(t, 2, 6e6))
	run(t, s, 12*time.Minute+30*time.Second)
	if _, err := s.Update(map[string]int{"counter": 4}, false); err == nil ||
		!strings.Contains(err.Error(), "inside a metrics window") {
		t.Errorf("update at 12m30s: %v, want a refusal inside a metrics window", err)
	}
	if sub := s.Substrate(); sub.Plan.Version != 1 || sub.Topology.Component("counter").Parallelism != 3 {
		t.Error("refused update changed the topology")
	}
	// The dry run changes nothing, so it is answered anywhere.
	if _, err := s.Update(map[string]int{"counter": 4}, true); err != nil {
		t.Errorf("dry run at 12m30s: %v", err)
	}
}

func TestUpdateErrors(t *testing.T) {
	s := newSim(t, wordCountConfig(t, 2, 6e6))
	if _, err := s.Update(map[string]int{"ghost": 3}, false); err == nil ||
		!strings.Contains(err.Error(), "unknown component") {
		t.Errorf("unknown component: %v", err)
	}
	if _, err := s.Update(map[string]int{"splitter": 0}, false); err == nil {
		t.Error("zero parallelism accepted")
	}
}

// TestSharedDBSeparatesTopologies: simulations given one Config.DB
// write into one store, their series told apart by the topology label.
func TestSharedDBSeparatesTopologies(t *testing.T) {
	db := tsdb.New(0)
	cfgA := wordCountConfig(t, 2, 6e6)
	cfgA.DB = db
	topB, err := topology.NewBuilder("other-job").
		AddSpout("src", 2).
		AddBolt("work", 2).
		Connect("src", "work", topology.ShuffleGrouping).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfgB := Config{
		Topology: topB,
		Profiles: map[string]ComponentProfile{
			"src":  {ServiceRate: 1e5},
			"work": {ServiceRate: 1e5},
		},
		SpoutRates: map[string]workload.RateSchedule{"src": workload.ConstantRate(100)},
		DB:         db,
	}
	for _, cfg := range []Config{cfgA, cfgB} {
		run(t, newSim(t, cfg), 2*time.Minute)
	}
	got := db.LabelValues(MetricExecuteCount, "topology")
	if len(got) != 2 || got[0] != "other-job" || got[1] != "word-count" {
		t.Errorf("topology labels = %v", got)
	}
}
