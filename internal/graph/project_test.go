package graph

import (
	"testing"

	"caladrius/internal/topology"
)

func paperTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.NewBuilder("word-count").
		AddSpout("spout", 2).
		AddBolt("splitter", 2).
		AddBolt("counter", 4).
		Connect("spout", "splitter", topology.ShuffleGrouping).
		Connect("splitter", "counter", topology.FieldsGrouping, "word").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestBuildLogical(t *testing.T) {
	top := paperTopology(t)
	g, err := BuildLogical(top)
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexCount() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("size = %d/%d", g.VertexCount(), g.EdgeCount())
	}
	v, err := g.Vertex(ComponentVertexID("splitter"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Props["parallelism"] != 2 || v.Props["kind"] != "bolt" {
		t.Errorf("splitter props = %+v", v.Props)
	}
	if up, err := g.V(ComponentVertexID("spout")).In().IDs(); err != nil || len(up) != 0 {
		t.Errorf("spout upstream = %v, %v", up, err)
	}
	// Grouping recorded on the edge.
	for _, e := range g.edges {
		if e.To == ComponentVertexID("counter") && e.Props["grouping"] != "fields" {
			t.Errorf("counter edge grouping = %v", e.Props["grouping"])
		}
	}
}

func TestBuildPhysical(t *testing.T) {
	top := paperTopology(t)
	plan, err := topology.RoundRobinPack(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildPhysical(top, plan)
	if err != nil {
		t.Fatal(err)
	}
	// 8 instances + 2 stream managers.
	if g.VertexCount() != 10 {
		t.Errorf("vertices = %d, want 10", g.VertexCount())
	}
	// Instance-level stream edges: 2*2 + 2*4 = 12.
	streamEdges := 0
	for _, e := range g.edges {
		if e.Label == EdgeStream {
			streamEdges++
		}
	}
	if streamEdges != 12 {
		t.Errorf("stream edges = %d, want 12", streamEdges)
	}
	// Path count through instance-level stream edges must match the
	// paper's 16 (stream managers do not multiply paths).
	total := 0
	for si := 0; si < 2; si++ {
		for ci := 0; ci < 4; ci++ {
			paths, err := g.AllPathsVia(t, si, ci)
			if err != nil {
				t.Fatal(err)
			}
			total += paths
		}
	}
	if total != 16 {
		t.Errorf("instance paths = %d, want 16", total)
	}
}

// AllPathsVia counts spout→counter paths using only stream edges. It is
// a test helper exercising traversal over the physical graph.
func (g *Graph) AllPathsVia(t *testing.T, spoutIdx, counterIdx int) (int, error) {
	t.Helper()
	from := InstanceVertexID(topology.InstanceID{Component: "spout", Index: spoutIdx})
	to := InstanceVertexID(topology.InstanceID{Component: "counter", Index: counterIdx})
	paths, err := g.V(from).Out(EdgeStream).Out(EdgeStream).Paths()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range paths {
		if p[len(p)-1] == to {
			n++
		}
	}
	return n, nil
}

func TestPhysicalStreamManagerPlumbing(t *testing.T) {
	top := paperTopology(t)
	plan, err := topology.RoundRobinPack(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildPhysical(top, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Both containers exchange data → transfer edges in both directions.
	transfers := 0
	for _, e := range g.edges {
		if e.Label == EdgeTransfer {
			transfers++
		}
	}
	if transfers != 2 {
		t.Errorf("transfer edges = %d, want 2", transfers)
	}
	// Every instance has exactly one emit edge if it has downstreams.
	for _, id := range top.Instances() {
		if id.Component == "counter" {
			continue // sink: no outgoing data
		}
		outs, err := g.V(InstanceVertexID(id)).Out(EdgeEmit).IDs()
		if err != nil || len(outs) != 1 {
			t.Errorf("%s emit edges = %v", id, outs)
		}
	}
}

func TestBuildPhysicalSingleContainer(t *testing.T) {
	top := paperTopology(t)
	plan, err := topology.RoundRobinPack(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildPhysical(top, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.edges {
		if e.Label == EdgeTransfer {
			t.Errorf("unexpected transfer edge in single-container plan")
		}
	}
}

func TestRemoteTransferFraction(t *testing.T) {
	top := paperTopology(t)
	one, _ := topology.RoundRobinPack(top, 1)
	frac := RemoteTransferFraction(top, one)
	for k, v := range frac {
		if v != 0 {
			t.Errorf("single container %s = %g, want 0", k, v)
		}
	}
	two, _ := topology.RoundRobinPack(top, 2)
	frac = RemoteTransferFraction(top, two)
	// With round-robin over 2 containers, each component's instances
	// alternate containers, so half the pairs are remote.
	for k, v := range frac {
		if v != 0.5 {
			t.Errorf("%s = %g, want 0.5", k, v)
		}
	}
}

func TestCacheHitAndInvalidate(t *testing.T) {
	top := paperTopology(t)
	plan, _ := topology.RoundRobinPack(top, 2)
	c := NewCache()
	l1, p1, err := c.Get(top, plan)
	if err != nil {
		t.Fatal(err)
	}
	l2, p2, err := c.Get(top, plan)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 || p1 != p2 {
		t.Error("second Get should return cached graphs")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Errorf("hits/misses = %d/%d", c.hits, c.misses)
	}
	// Version bump invalidates.
	plan2 := *plan
	plan2.Version = 2
	l3, _, err := c.Get(top, &plan2)
	if err != nil {
		t.Fatal(err)
	}
	if l3 == l1 {
		t.Error("version bump should rebuild")
	}
	c.Invalidate(top.Name())
	l4, _, err := c.Get(top, &plan2)
	if err != nil {
		t.Fatal(err)
	}
	if l4 == l3 {
		t.Error("invalidate should force rebuild")
	}
}
