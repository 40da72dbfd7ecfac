package graph

import (
	"fmt"
	"sort"
)

// Traversal is a fluent, lazily-evaluated query over a Graph, modelled
// on the Gremlin steps Caladrius uses. Build a pipeline with the step
// methods, then terminate with IDs, Vertices, Values, Paths or Count.
//
//	g.V().HasLabel("instance").Has("component", "splitter").
//	    Out("stream").IDs()
//
// Traversals hold a read snapshot per terminal call; steps themselves
// only record the plan.
type Traversal struct {
	g     *Graph
	steps []step
}

type traverser struct {
	id   string   // current vertex ID
	path []string // visited vertex IDs including current
}

// maxTraversers bounds the traversers a step may hold. Query text is
// untrusted, and each out().in() pair multiplies the traversers by about
// 31 on the demo's 17-vertex physical graph, so a short query could
// otherwise exhaust memory. The largest legitimate answer there is 96
// instance paths.
const maxTraversers = 1 << 16

var errTooManyTraversers = fmt.Errorf("graph: traversal exceeds %d traversers", maxTraversers)

type step func([]traverser) ([]traverser, error)

// V starts a traversal at all vertices, or at the given IDs.
func (g *Graph) V(ids ...string) *Traversal {
	t := &Traversal{g: g}
	t.steps = append(t.steps, func(_ []traverser) ([]traverser, error) {
		g.mu.RLock()
		defer g.mu.RUnlock()
		var start []string
		if len(ids) > 0 {
			for _, id := range ids {
				if _, ok := g.vertices[id]; !ok {
					return nil, fmt.Errorf("%w: vertex %q", ErrNotFound, id)
				}
				start = append(start, id)
			}
		} else {
			for id := range g.vertices {
				start = append(start, id)
			}
			sort.Strings(start)
		}
		if len(start) > maxTraversers {
			return nil, errTooManyTraversers
		}
		out := make([]traverser, len(start))
		for i, id := range start {
			out[i] = traverser{id: id, path: []string{id}}
		}
		return out, nil
	})
	return t
}

func (t *Traversal) add(s step) *Traversal {
	t.steps = append(t.steps, s)
	return t
}

// HasLabel keeps vertices whose label is one of the given labels.
func (t *Traversal) HasLabel(labels ...string) *Traversal {
	return t.add(func(in []traverser) ([]traverser, error) {
		t.g.mu.RLock()
		defer t.g.mu.RUnlock()
		var out []traverser
		for _, tr := range in {
			if v, ok := t.g.vertices[tr.id]; ok && containsString(labels, v.Label) {
				out = append(out, tr)
			}
		}
		return out, nil
	})
}

// Has keeps vertices whose property key equals value. Numeric values
// compare across Go integer and float types (a property stored as int
// matches an int64 or float64 query argument).
func (t *Traversal) Has(key string, value any) *Traversal {
	return t.add(func(in []traverser) ([]traverser, error) {
		t.g.mu.RLock()
		defer t.g.mu.RUnlock()
		var out []traverser
		for _, tr := range in {
			if v, ok := t.g.vertices[tr.id]; ok && propEqual(v.Props[key], value) {
				out = append(out, tr)
			}
		}
		return out, nil
	})
}

// propEqual compares property values, treating all numeric types as
// one domain.
func propEqual(a, b any) bool {
	if a == b {
		return true
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	return aok && bok && af == bf
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case int:
		return float64(n), true
	case int8:
		return float64(n), true
	case int16:
		return float64(n), true
	case int32:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint:
		return float64(n), true
	case uint64:
		return float64(n), true
	case float32:
		return float64(n), true
	case float64:
		return n, true
	default:
		return 0, false
	}
}

// Out moves each traverser across outgoing edges (optionally filtered
// by edge label), branching when several edges apply.
func (t *Traversal) Out(edgeLabels ...string) *Traversal {
	return t.move(edgeLabels, true)
}

// In moves each traverser across incoming edges.
func (t *Traversal) In(edgeLabels ...string) *Traversal {
	return t.move(edgeLabels, false)
}

func (t *Traversal) move(edgeLabels []string, outward bool) *Traversal {
	return t.add(func(in []traverser) ([]traverser, error) {
		t.g.mu.RLock()
		defer t.g.mu.RUnlock()
		var out []traverser
		for _, tr := range in {
			var next []string
			if outward {
				next = t.g.neighborsLocked(tr.id, t.g.out, func(e *Edge) string { return e.To }, edgeLabels)
			} else {
				next = t.g.neighborsLocked(tr.id, t.g.in, func(e *Edge) string { return e.From }, edgeLabels)
			}
			for _, n := range next {
				if len(out) == maxTraversers {
					return nil, errTooManyTraversers
				}
				np := append(append([]string(nil), tr.path...), n)
				out = append(out, traverser{id: n, path: np})
			}
		}
		return out, nil
	})
}

// Dedup collapses traversers that sit on the same vertex, keeping the
// first (deterministic because upstream steps are ordered).
func (t *Traversal) Dedup() *Traversal {
	return t.add(func(in []traverser) ([]traverser, error) {
		seen := map[string]bool{}
		var out []traverser
		for _, tr := range in {
			if !seen[tr.id] {
				seen[tr.id] = true
				out = append(out, tr)
			}
		}
		return out, nil
	})
}

// Limit keeps at most n traversers.
func (t *Traversal) Limit(n int) *Traversal {
	return t.add(func(in []traverser) ([]traverser, error) {
		if n < len(in) {
			in = in[:n]
		}
		return in, nil
	})
}

func (t *Traversal) run() ([]traverser, error) {
	var cur []traverser
	for _, s := range t.steps {
		var err error
		cur, err = s(cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// IDs terminates the traversal with the current vertex IDs, in
// traversal order.
func (t *Traversal) IDs() ([]string, error) {
	cur, err := t.run()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(cur))
	for i, tr := range cur {
		out[i] = tr.id
	}
	return out, nil
}

// Vertices terminates with copies of the current vertices.
func (t *Traversal) Vertices() ([]Vertex, error) {
	ids, err := t.IDs()
	if err != nil {
		return nil, err
	}
	out := make([]Vertex, 0, len(ids))
	for _, id := range ids {
		v, err := t.g.Vertex(id)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Values terminates with the named property of each current vertex,
// skipping vertices without it.
func (t *Traversal) Values(key string) ([]any, error) {
	vs, err := t.Vertices()
	if err != nil {
		return nil, err
	}
	var out []any
	for _, v := range vs {
		if val, ok := v.Props[key]; ok {
			out = append(out, val)
		}
	}
	return out, nil
}

// Paths terminates with the full vertex path of each traverser.
func (t *Traversal) Paths() ([][]string, error) {
	cur, err := t.run()
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(cur))
	for i, tr := range cur {
		out[i] = append([]string(nil), tr.path...)
	}
	return out, nil
}

// Count terminates with the number of traversers.
func (t *Traversal) Count() (int, error) {
	cur, err := t.run()
	if err != nil {
		return 0, err
	}
	return len(cur), nil
}
