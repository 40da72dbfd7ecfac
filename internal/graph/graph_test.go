package graph

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func mustAddVertex(t *testing.T, g *Graph, id, label string, props Properties) {
	t.Helper()
	if err := g.AddVertex(id, label, props); err != nil {
		t.Fatal(err)
	}
}

func mustAddEdge(t *testing.T, g *Graph, from, to, label string) {
	t.Helper()
	if _, err := g.AddEdge(from, to, label, nil); err != nil {
		t.Fatal(err)
	}
}

func chainGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	mustAddVertex(t, g, "a", "component", Properties{"name": "a"})
	mustAddVertex(t, g, "b", "component", Properties{"name": "b"})
	mustAddVertex(t, g, "c", "component", Properties{"name": "c"})
	mustAddEdge(t, g, "a", "b", "stream")
	mustAddEdge(t, g, "b", "c", "stream")
	return g
}

func TestAddAndLookup(t *testing.T) {
	g := chainGraph(t)
	if g.VertexCount() != 3 || g.EdgeCount() != 2 {
		t.Errorf("size = %d/%d", g.VertexCount(), g.EdgeCount())
	}
	v, err := g.Vertex("a")
	if err != nil {
		t.Fatal(err)
	}
	if v.Label != "component" || v.Props["name"] != "a" {
		t.Errorf("vertex = %+v", v)
	}
	// Returned vertex is a copy.
	v.Props["name"] = "tampered"
	again, _ := g.Vertex("a")
	if again.Props["name"] != "a" {
		t.Error("Vertex aliases internal properties")
	}
	if _, err := g.Vertex("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing vertex: %v", err)
	}
}

func TestDuplicateAndMissing(t *testing.T) {
	g := chainGraph(t)
	if err := g.AddVertex("a", "x", nil); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate vertex: %v", err)
	}
	if err := g.AddVertex("", "x", nil); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := g.AddEdge("a", "ghost", "e", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("edge to missing vertex: %v", err)
	}
	if _, err := g.AddEdge("ghost", "a", "e", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("edge from missing vertex: %v", err)
	}
}

func TestNeighborsWithLabels(t *testing.T) {
	g := New()
	for _, id := range []string{"a", "b", "c"} {
		mustAddVertex(t, g, id, "x", nil)
	}
	mustAddEdge(t, g, "a", "b", "red")
	mustAddEdge(t, g, "a", "c", "blue")
	ids := func(tr *Traversal) []string {
		t.Helper()
		got, err := tr.IDs()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := ids(g.V("a").Out()); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Errorf("all = %v", got)
	}
	if got := ids(g.V("a").Out("red")); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("red = %v", got)
	}
	if got := ids(g.V("c").In("blue")); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("in blue = %v", got)
	}
	if got := ids(g.V("a").In()); len(got) != 0 {
		t.Errorf("in of source = %v", got)
	}
}

func TestTraversalSteps(t *testing.T) {
	g := New()
	mustAddVertex(t, g, "comp:spout", "component", Properties{"name": "spout", "kind": "spout"})
	mustAddVertex(t, g, "comp:splitter", "component", Properties{"name": "splitter", "kind": "bolt"})
	mustAddVertex(t, g, "comp:counter", "component", Properties{"name": "counter", "kind": "bolt"})
	mustAddEdge(t, g, "comp:spout", "comp:splitter", "stream")
	mustAddEdge(t, g, "comp:splitter", "comp:counter", "stream")

	ids, err := g.V().HasLabel("component").Has("kind", "bolt").IDs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"comp:counter", "comp:splitter"}) {
		t.Errorf("bolts = %v", ids)
	}

	names, err := g.V("comp:spout").Out("stream").Out("stream").Values("name")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []any{"counter"}) {
		t.Errorf("two hops = %v", names)
	}

	paths, err := g.V("comp:spout").Out().Out().Paths()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths, [][]string{{"comp:spout", "comp:splitter", "comp:counter"}}) {
		t.Errorf("paths = %v", paths)
	}

	back, err := g.V("comp:counter").In("stream").IDs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, []string{"comp:splitter"}) {
		t.Errorf("in = %v", back)
	}

	n, err := g.V().Count()
	if err != nil || n != 3 {
		t.Errorf("count = %d, %v", n, err)
	}

	if _, err := g.V("ghost").IDs(); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost start: %v", err)
	}
}

func TestTraversalDedupAndLimit(t *testing.T) {
	g := New()
	mustAddVertex(t, g, "a", "x", nil)
	mustAddVertex(t, g, "b", "x", nil)
	mustAddVertex(t, g, "t", "x", nil)
	mustAddEdge(t, g, "a", "t", "e")
	mustAddEdge(t, g, "b", "t", "e")
	ids, err := g.V("a", "b").Out().IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Errorf("pre-dedup = %v", ids)
	}
	ids, err = g.V("a", "b").Out().Dedup().IDs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"t"}) {
		t.Errorf("dedup = %v", ids)
	}
	ids, err = g.V().Limit(2).IDs()
	if err != nil || len(ids) != 2 {
		t.Errorf("limit = %v, %v", ids, err)
	}
}

func TestConcurrentUse(t *testing.T) {
	g := New()
	mustAddVertex(t, g, "root", "x", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := string(rune('a'+w)) + "-" + string(rune('0'+i%10))
				g.AddVertex(id, "x", nil) //nolint:errcheck
				g.AddEdge("root", id, "e", nil)
				g.V().HasLabel("x").Count() //nolint:errcheck
				g.V("root").Out().IDs()     //nolint:errcheck
			}
		}(w)
	}
	wg.Wait()
	if g.VertexCount() != 1+8*10 {
		t.Errorf("vertices = %d", g.VertexCount())
	}
}
