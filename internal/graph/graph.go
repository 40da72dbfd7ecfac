// Package graph implements the property-graph store and traversal API
// Caladrius uses for topology analysis. The original system delegates
// this to Apache TinkerPop; this package provides the subset Caladrius
// exercises — labelled vertices and edges with arbitrary properties and
// a fluent traversal builder (V/Out/In/HasLabel/Has/Values/Path/Dedup)
// behind the Gremlin endpoint — as an embeddable, concurrency-safe
// in-memory store. A graph is projected once per packing-plan version
// (Cache) and never mutated afterwards. Component-path enumeration and
// topological order for the models live in internal/topology.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Common errors.
var (
	ErrNotFound  = errors.New("graph: element not found")
	ErrDuplicate = errors.New("graph: element already exists")
)

// Properties is an element's key→value map.
type Properties map[string]any

func (p Properties) clone() Properties {
	if p == nil {
		return Properties{}
	}
	c := make(Properties, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Vertex is a node in the graph.
type Vertex struct {
	ID    string
	Label string
	Props Properties
}

// Edge is a directed, labelled connection between two vertices.
type Edge struct {
	ID    string
	Label string
	From  string // vertex ID
	To    string // vertex ID
	Props Properties
}

// Graph is an in-memory property graph, safe for concurrent use.
type Graph struct {
	mu       sync.RWMutex
	vertices map[string]*Vertex
	edges    map[string]*Edge
	out      map[string][]string // vertex ID -> outgoing edge IDs
	in       map[string][]string // vertex ID -> incoming edge IDs
	edgeSeq  int
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		vertices: map[string]*Vertex{},
		edges:    map[string]*Edge{},
		out:      map[string][]string{},
		in:       map[string][]string{},
	}
}

// AddVertex inserts a vertex. The ID must be unique.
func (g *Graph) AddVertex(id, label string, props Properties) error {
	if id == "" {
		return errors.New("graph: empty vertex id")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.vertices[id]; ok {
		return fmt.Errorf("%w: vertex %q", ErrDuplicate, id)
	}
	g.vertices[id] = &Vertex{ID: id, Label: label, Props: props.clone()}
	return nil
}

// AddEdge inserts a directed edge between existing vertices and returns
// its generated ID.
func (g *Graph) AddEdge(from, to, label string, props Properties) (string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.vertices[from]; !ok {
		return "", fmt.Errorf("%w: vertex %q", ErrNotFound, from)
	}
	if _, ok := g.vertices[to]; !ok {
		return "", fmt.Errorf("%w: vertex %q", ErrNotFound, to)
	}
	g.edgeSeq++
	id := fmt.Sprintf("e%d", g.edgeSeq)
	g.edges[id] = &Edge{ID: id, Label: label, From: from, To: to, Props: props.clone()}
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id, nil
}

// Vertex returns a copy of the vertex, or ErrNotFound.
func (g *Graph) Vertex(id string) (Vertex, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	v, ok := g.vertices[id]
	if !ok {
		return Vertex{}, fmt.Errorf("%w: vertex %q", ErrNotFound, id)
	}
	return Vertex{ID: v.ID, Label: v.Label, Props: v.Props.clone()}, nil
}

// VertexCount and EdgeCount report graph size.
func (g *Graph) VertexCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.vertices)
}

// EdgeCount reports the number of edges.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

func (g *Graph) neighborsLocked(id string, index map[string][]string, pick func(*Edge) string, labels []string) []string {
	var set []string
	seen := map[string]bool{}
	for _, eid := range index[id] {
		e := g.edges[eid]
		if len(labels) > 0 && !containsString(labels, e.Label) {
			continue
		}
		n := pick(e)
		if !seen[n] {
			seen[n] = true
			set = append(set, n)
		}
	}
	sort.Strings(set)
	return set
}

func containsString(xs []string, s string) bool {
	for _, v := range xs {
		if v == s {
			return true
		}
	}
	return false
}
