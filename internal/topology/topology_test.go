package topology

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// wordCount builds the paper's 3-stage example (Fig. 1): spout p=2,
// splitter p=2 via shuffle, counter p=4 via fields grouping.
func wordCount(t *testing.T) *Topology {
	t.Helper()
	top, err := NewBuilder("word-count").
		AddSpout("spout", 2).
		AddBolt("splitter", 2).
		AddBolt("counter", 4).
		Connect("spout", "splitter", ShuffleGrouping).
		Connect("splitter", "counter", FieldsGrouping, "word").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestBuildWordCount(t *testing.T) {
	top := wordCount(t)
	if top.Name() != "word-count" {
		t.Errorf("name = %q", top.Name())
	}
	if got := top.ComponentNames(); !reflect.DeepEqual(got, []string{"spout", "splitter", "counter"}) {
		t.Errorf("order = %v", got)
	}
	if got := top.Spouts(); !reflect.DeepEqual(got, []string{"spout"}) {
		t.Errorf("spouts = %v", got)
	}
	if got := top.Outbound("counter"); len(got) != 0 {
		t.Errorf("sink outbound = %v", got)
	}
	if got := len(top.Instances()); got != 8 {
		t.Errorf("instances = %d", got)
	}
	c := top.Component("splitter")
	if c == nil || c.Kind != Bolt || c.Parallelism != 2 {
		t.Errorf("splitter = %+v", c)
	}
	if c.Resources != DefaultResources {
		t.Errorf("resources = %+v", c.Resources)
	}
	if top.Component("nope") != nil {
		t.Error("unknown component should be nil")
	}
}

func TestInstancePathCountMatchesPaper(t *testing.T) {
	// Fig. 1(c): 2 × 2 × 4 = 16 possible paths.
	if got := wordCount(t).InstancePathCount(); got != 16 {
		t.Errorf("paths = %d, want 16", got)
	}
}

func TestPathsEnumeration(t *testing.T) {
	top := wordCount(t)
	paths := top.Paths()
	want := [][]string{{"spout", "splitter", "counter"}}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("paths = %v", paths)
	}

	// Diamond: spout → a, b → join.
	dia, err := NewBuilder("diamond").
		AddSpout("s", 1).
		AddBolt("a", 2).
		AddBolt("b", 3).
		AddBolt("join", 1).
		Connect("s", "a", ShuffleGrouping).
		Connect("s", "b", ShuffleGrouping).
		Connect("a", "join", ShuffleGrouping).
		Connect("b", "join", ShuffleGrouping).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := dia.Paths()
	wantDia := [][]string{{"s", "a", "join"}, {"s", "b", "join"}}
	if !reflect.DeepEqual(got, wantDia) {
		t.Errorf("diamond paths = %v", got)
	}
	// 1*2*1 + 1*3*1 = 5 instance-level paths.
	if n := dia.InstancePathCount(); n != 5 {
		t.Errorf("diamond instance paths = %d, want 5", n)
	}
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Topology, error)
		frag  string
	}{
		{"empty name", func() (*Topology, error) {
			return NewBuilder("").AddSpout("s", 1).AddBolt("b", 1).Connect("s", "b", ShuffleGrouping).Build()
		}, "empty topology name"},
		{"duplicate component", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("x", 1).AddBolt("x", 1).Build()
		}, "duplicate component"},
		{"zero parallelism", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 0).Build()
		}, "parallelism 0"},
		{"undeclared from", func() (*Topology, error) {
			return NewBuilder("t").AddBolt("b", 1).Connect("ghost", "b", ShuffleGrouping).Build()
		}, "undeclared"},
		{"spout with inbound", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 1).AddSpout("s2", 1).
				Connect("s", "s2", ShuffleGrouping).Build()
		}, "has inbound"},
		{"orphan bolt", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 1).AddBolt("b", 1).AddBolt("orphan", 1).
				Connect("s", "b", ShuffleGrouping).Build()
		}, "no inbound"},
		{"spout without output", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 1).Build()
		}, "no outbound"},
		{"cycle", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 1).AddBolt("a", 1).AddBolt("b", 1).
				Connect("s", "a", ShuffleGrouping).
				Connect("a", "b", ShuffleGrouping).
				Connect("b", "a", ShuffleGrouping).Build()
		}, "cycle"},
		{"fields without keys", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 1).AddBolt("b", 1).Connect("s", "b", FieldsGrouping).Build()
		}, "needs key fields"},
		{"keys on shuffle", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 1).AddBolt("b", 1).Connect("s", "b", ShuffleGrouping, "k").Build()
		}, "key fields given"},
		{"unknown grouping", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 1).AddBolt("b", 1).Connect("s", "b", Grouping("bogus")).Build()
		}, "unknown grouping"},
		{"duplicate stream", func() (*Topology, error) {
			return NewBuilder("t").AddSpout("s", 1).AddBolt("b", 1).
				Connect("s", "b", ShuffleGrouping).
				Connect("s", "b", ShuffleGrouping).Build()
		}, "duplicate stream"},
		{"bad resources", func() (*Topology, error) {
			return NewBuilder("t").addComponent("s", Spout, 1, Resources{CPUCores: -1, RAMMB: 10}).Build()
		}, "non-positive resources"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not contain %q", err, c.frag)
			}
		})
	}
}

func TestMultipleNamedStreams(t *testing.T) {
	top, err := NewBuilder("t").AddSpout("s", 1).AddBolt("b", 1).
		ConnectStream("left", "s", "b", ShuffleGrouping).
		ConnectStream("right", "s", "b", ShuffleGrouping).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(top.Outbound("s")); got != 2 {
		t.Errorf("outbound = %d", got)
	}
	inbound := 0
	for _, s := range top.Streams() {
		if s.To == "b" {
			inbound++
		}
	}
	if inbound != 2 {
		t.Errorf("inbound = %d", inbound)
	}
	// Parallel streams to the same component do not double the paths.
	if got := top.Paths(); len(got) != 1 {
		t.Errorf("paths = %v", got)
	}
}

func TestWithParallelism(t *testing.T) {
	top := wordCount(t)
	scaled, err := top.WithParallelism(map[string]int{"splitter": 4})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Component("splitter").Parallelism != 4 {
		t.Errorf("scaled parallelism = %d", scaled.Component("splitter").Parallelism)
	}
	if top.Component("splitter").Parallelism != 2 {
		t.Errorf("original mutated")
	}
	if scaled.Component("counter").Parallelism != 4 {
		t.Errorf("unchanged component altered")
	}
	if _, err := top.WithParallelism(map[string]int{"ghost": 1}); err == nil {
		t.Error("unknown component accepted")
	}
	if _, err := top.WithParallelism(map[string]int{"splitter": 0}); err == nil {
		t.Error("zero parallelism accepted")
	}
}

func TestInstancesEnumeration(t *testing.T) {
	top := wordCount(t)
	ids := top.Instances()
	if len(ids) != 8 {
		t.Fatalf("instances = %d", len(ids))
	}
	if ids[0] != (InstanceID{"spout", 0}) || ids[7] != (InstanceID{"counter", 3}) {
		t.Errorf("instances = %v", ids)
	}
	if got := ids[2].String(); got != "splitter[0]" {
		t.Errorf("String = %q", got)
	}
}

func TestAccessorsReturnCopies(t *testing.T) {
	top := wordCount(t)
	top.Components()[0].Parallelism = 99
	top.Streams()[0].From = "tampered"
	top.ComponentNames()[0] = "tampered"
	if top.Component("spout").Parallelism != 2 {
		t.Error("Components() aliases internal state")
	}
	if top.Streams()[0].From != "spout" {
		t.Error("Streams() aliases internal state")
	}
	if top.ComponentNames()[0] != "spout" {
		t.Error("ComponentNames() aliases internal state")
	}
}

func TestRoundRobinPack(t *testing.T) {
	top := wordCount(t)
	plan, err := RoundRobinPack(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(top); err != nil {
		t.Fatal(err)
	}
	if len(plan.Containers) != 2 {
		t.Fatalf("containers = %d", len(plan.Containers))
	}
	// 8 instances over 2 containers round-robin → 4 each.
	for _, c := range plan.Containers {
		if len(c.Instances) != 4 {
			t.Errorf("container %d has %d instances", c.ID, len(c.Instances))
		}
		if c.CPUCores != 4 || c.RAMMB != 4*2048 {
			t.Errorf("container %d resources %.1f/%d", c.ID, c.CPUCores, c.RAMMB)
		}
	}
	if id, ok := plan.ContainerOf(InstanceID{"spout", 0}); !ok || id != 0 {
		t.Errorf("spout[0] in container %d (ok=%v)", id, ok)
	}
	if id, ok := plan.ContainerOf(InstanceID{"spout", 1}); !ok || id != 1 {
		t.Errorf("spout[1] in container %d (ok=%v)", id, ok)
	}
	if _, ok := plan.ContainerOf(InstanceID{"ghost", 0}); ok {
		t.Error("ghost instance found")
	}
}

func TestRoundRobinPackClampsContainers(t *testing.T) {
	top := wordCount(t)
	plan, err := RoundRobinPack(top, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Containers) != 8 {
		t.Errorf("containers = %d, want 8 (clamped to instance count)", len(plan.Containers))
	}
	if _, err := RoundRobinPack(top, 0); err == nil {
		t.Error("zero containers accepted")
	}
}

func TestFirstFitDecreasingPack(t *testing.T) {
	top, err := NewBuilder("t").
		addComponent("s", Spout, 2, Resources{CPUCores: 2, RAMMB: 1024}).
		AddBoltWithResources("b", 4, Resources{CPUCores: 1, RAMMB: 512}).
		Connect("s", "b", ShuffleGrouping).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := FirstFitDecreasingPack(top, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(top); err != nil {
		t.Fatal(err)
	}
	// Total demand 2*2+4*1 = 8 cores; 4-core bins → 2 containers.
	if len(plan.Containers) != 2 {
		t.Errorf("containers = %d, want 2: %+v", len(plan.Containers), plan.Containers)
	}
	if _, err := FirstFitDecreasingPack(top, 1, 4096); err == nil {
		t.Error("oversized instance accepted")
	}
	if _, err := FirstFitDecreasingPack(top, 0, 0); err == nil {
		t.Error("non-positive limits accepted")
	}
}

func TestPackingValidateCatchesCorruption(t *testing.T) {
	top := wordCount(t)
	plan, err := RoundRobinPack(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one instance.
	broken := *plan
	broken.Containers = append([]Container(nil), plan.Containers...)
	broken.Containers[0].Instances = broken.Containers[0].Instances[1:]
	if err := broken.Validate(top); err == nil {
		t.Error("missing instance not caught")
	}
	// Wrong resources.
	broken2 := *plan
	broken2.Containers = append([]Container(nil), plan.Containers...)
	broken2.Containers[0].CPUCores += 1
	if err := broken2.Validate(top); err == nil {
		t.Error("wrong resources not caught")
	}
}

func TestQuickRoundRobinPacksEverythingOnce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder("q").AddSpout("s", 1+r.Intn(5))
		prev := "s"
		nBolts := 1 + r.Intn(5)
		for i := 0; i < nBolts; i++ {
			name := "b" + string(rune('0'+i))
			b.AddBolt(name, 1+r.Intn(6)).Connect(prev, name, ShuffleGrouping)
			prev = name
		}
		top, err := b.Build()
		if err != nil {
			return false
		}
		nc := 1 + r.Intn(10)
		plan, err := RoundRobinPack(top, nc)
		if err != nil {
			return false
		}
		return plan.Validate(top) == nil && plan.InstanceCount() == len(top.Instances())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Spout.String() != "spout" || Bolt.String() != "bolt" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind = %q", Kind(9).String())
	}
}

func TestDescendants(t *testing.T) {
	dia, err := NewBuilder("diamond").
		AddSpout("s", 1).
		AddBolt("a", 1).
		AddBolt("b", 1).
		AddBolt("join", 1).
		AddBolt("tail", 1).
		Connect("s", "a", ShuffleGrouping).
		Connect("s", "b", ShuffleGrouping).
		Connect("a", "join", ShuffleGrouping).
		Connect("b", "join", ShuffleGrouping).
		Connect("join", "tail", ShuffleGrouping).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"s":    {"a", "b", "join", "tail"},
		"a":    {"join", "tail"},
		"join": {"tail"},
		"tail": nil,
	}
	for name, want := range cases {
		got := dia.Descendants(name)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Descendants(%s) = %v, want %v", name, got, want)
		}
	}
}
