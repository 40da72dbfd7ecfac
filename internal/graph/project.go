package graph

import (
	"fmt"
	"sync"

	"caladrius/internal/topology"
)

// Vertex labels used by the topology projections.
const (
	LabelComponent = "component"
	LabelInstance  = "instance"
	LabelStreamMgr = "stmgr"
)

// Edge labels used by the topology projections.
const (
	// EdgeStream is a logical (component- or instance-level) data-flow
	// edge.
	EdgeStream = "stream"
	// EdgeEmit connects an instance to its container's stream manager.
	EdgeEmit = "emit"
	// EdgeTransfer connects stream managers of different containers.
	EdgeTransfer = "transfer"
	// EdgeDeliver connects a stream manager to a local receiving
	// instance.
	EdgeDeliver = "deliver"
)

// ComponentVertexID names the logical vertex for a component.
func ComponentVertexID(component string) string { return "comp:" + component }

// InstanceVertexID names the physical vertex for an instance.
func InstanceVertexID(id topology.InstanceID) string {
	return fmt.Sprintf("inst:%s[%d]", id.Component, id.Index)
}

// StreamManagerVertexID names the vertex for a container's stream
// manager.
func StreamManagerVertexID(container int) string {
	return fmt.Sprintf("stmgr:%d", container)
}

// BuildLogical projects a topology's component-level DAG into a graph:
// one vertex per component (label "component") and one edge per stream
// (label "stream" with grouping and stream name properties).
func BuildLogical(t *topology.Topology) (*Graph, error) {
	g := New()
	for _, c := range t.Components() {
		err := g.AddVertex(ComponentVertexID(c.Name), LabelComponent, Properties{
			"name":        c.Name,
			"kind":        c.Kind.String(),
			"parallelism": c.Parallelism,
		})
		if err != nil {
			return nil, err
		}
	}
	for _, s := range t.Streams() {
		_, err := g.AddEdge(ComponentVertexID(s.From), ComponentVertexID(s.To), EdgeStream, Properties{
			"grouping": string(s.Grouping),
			"stream":   s.Name,
		})
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// BuildPhysical projects a packing plan into a graph containing every
// instance and every stream manager, as the paper's graph component
// does. Instance-to-instance data flow is represented both directly
// (label "stream", used for path counting — stream managers do not
// multiply paths) and through the stream-manager route (emit /
// transfer / deliver edges) for locality analysis.
func BuildPhysical(t *topology.Topology, plan *topology.PackingPlan) (*Graph, error) {
	g := New()
	for _, c := range plan.Containers {
		err := g.AddVertex(StreamManagerVertexID(c.ID), LabelStreamMgr, Properties{"container": c.ID})
		if err != nil {
			return nil, err
		}
	}
	for _, id := range t.Instances() {
		cont, ok := plan.ContainerOf(id)
		if !ok {
			return nil, fmt.Errorf("graph: instance %s missing from packing plan", id)
		}
		err := g.AddVertex(InstanceVertexID(id), LabelInstance, Properties{
			"component": id.Component,
			"index":     id.Index,
			"container": cont,
		})
		if err != nil {
			return nil, err
		}
	}
	// Avoid duplicate stream-manager plumbing edges.
	emitted := map[string]bool{}
	addOnce := func(from, to, label string) error {
		key := from + "|" + to + "|" + label
		if emitted[key] {
			return nil
		}
		emitted[key] = true
		_, err := g.AddEdge(from, to, label, nil)
		return err
	}
	for _, s := range t.Streams() {
		fromP := t.Component(s.From).Parallelism
		toP := t.Component(s.To).Parallelism
		for fi := 0; fi < fromP; fi++ {
			fid := topology.InstanceID{Component: s.From, Index: fi}
			fc, _ := plan.ContainerOf(fid)
			for ti := 0; ti < toP; ti++ {
				tid := topology.InstanceID{Component: s.To, Index: ti}
				tc, _ := plan.ContainerOf(tid)
				if _, err := g.AddEdge(InstanceVertexID(fid), InstanceVertexID(tid), EdgeStream, Properties{
					"grouping": string(s.Grouping),
					"stream":   s.Name,
				}); err != nil {
					return nil, err
				}
				if err := addOnce(InstanceVertexID(fid), StreamManagerVertexID(fc), EdgeEmit); err != nil {
					return nil, err
				}
				if fc != tc {
					if err := addOnce(StreamManagerVertexID(fc), StreamManagerVertexID(tc), EdgeTransfer); err != nil {
						return nil, err
					}
				}
				if err := addOnce(StreamManagerVertexID(tc), InstanceVertexID(tid), EdgeDeliver); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// RemoteTransferFraction computes, for each logical stream, the
// fraction of instance pairs whose communication crosses containers.
// Schedulers that minimise network distance aim to reduce this; the
// value feeds Caladrius' scheduler-comparison use case.
func RemoteTransferFraction(t *topology.Topology, plan *topology.PackingPlan) map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.Streams() {
		fromP := t.Component(s.From).Parallelism
		toP := t.Component(s.To).Parallelism
		total, remote := 0, 0
		for fi := 0; fi < fromP; fi++ {
			fc, _ := plan.ContainerOf(topology.InstanceID{Component: s.From, Index: fi})
			for ti := 0; ti < toP; ti++ {
				tc, _ := plan.ContainerOf(topology.InstanceID{Component: s.To, Index: ti})
				total++
				if fc != tc {
					remote++
				}
			}
		}
		key := s.From + "->" + s.To + "/" + s.Name
		if total > 0 {
			out[key] = float64(remote) / float64(total)
		}
	}
	return out
}

// Cache memoises projected graphs per topology, invalidated by packing
// plan version — the paper notes topology graphs are large and densely
// connected, so they are set up once and reused until the topology is
// updated.
type Cache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	hits    int
	misses  int
}

type cacheEntry struct {
	version  int
	logical  *Graph
	physical *Graph
}

// NewCache creates an empty graph cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]cacheEntry{}}
}

// Get returns the cached logical and physical graphs for the topology
// if the cached packing-plan version matches; otherwise it builds,
// stores and returns fresh projections.
func (c *Cache) Get(t *topology.Topology, plan *topology.PackingPlan) (logical, physical *Graph, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[t.Name()]; ok && e.version == plan.Version {
		c.hits++
		return e.logical, e.physical, nil
	}
	c.misses++
	logical, err = BuildLogical(t)
	if err != nil {
		return nil, nil, err
	}
	physical, err = BuildPhysical(t, plan)
	if err != nil {
		return nil, nil, err
	}
	c.entries[t.Name()] = cacheEntry{version: plan.Version, logical: logical, physical: physical}
	return logical, physical, nil
}

// Invalidate drops the cached graphs for a topology.
func (c *Cache) Invalidate(topologyName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, topologyName)
}
