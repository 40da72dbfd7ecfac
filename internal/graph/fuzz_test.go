package graph

import (
	"testing"

	"caladrius/internal/heron"
	"caladrius/internal/topology"
)

// FuzzGremlinQuery throws arbitrary query text at the demo daemon's
// physical graph (word-count at 8/3/4 over 2 containers, 17 vertices),
// the text POST …/query hands to Query. A query must never panic, a
// failed one returns no result, and no answer holds more than
// maxTraversers entries however the steps multiply.
func FuzzGremlinQuery(f *testing.F) {
	top, err := heron.WordCountTopology(8, 3, 4)
	if err != nil {
		f.Fatal(err)
	}
	plan, err := topology.RoundRobinPack(top, 2)
	if err != nil {
		f.Fatal(err)
	}
	g, err := BuildPhysical(top, plan)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"g.V().count()",
		"g.V().hasLabel('instance').has('component','splitter').out('stream').path()",
		"V().has('index', 2).in().dedup().values('component')",
		"g.V().out().in().out().in().out().in().count()",
		"g.V().out().limit(3).ids()",
		"g.V('nope')",
		"g.V().has('a'',b', 1.5).count(",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		res, err := g.Query(q)
		if err != nil {
			if res != nil {
				t.Errorf("%q: error %v with result %v", q, err, res)
			}
			return
		}
		n := 0
		switch r := res.(type) {
		case int:
			n = r
		case []string:
			n = len(r)
		case []any:
			n = len(r)
		case [][]string:
			n = len(r)
		default:
			t.Fatalf("%q: result of type %T", q, res)
		}
		if n > maxTraversers {
			t.Errorf("%q: %d entries, more than %d", q, n, maxTraversers)
		}
	})
}
