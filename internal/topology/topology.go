// Package topology models stream processing topologies the way Heron
// (and the Caladrius paper) describes them: a directed acyclic graph of
// components — spouts that pull tuples into the job and bolts that
// process them — each running as a configurable number of parallel
// instances, connected by streams with a partitioning strategy
// (stream grouping).
//
// The package provides a validating builder, navigation helpers
// (topological order, path enumeration, upstream/downstream sets) and
// the instance-level identity types shared by the simulator, the
// models and the packing planner.
package topology

import (
	"errors"
	"fmt"
	"sort"
)

// Kind distinguishes sources from processing operators.
type Kind int

// Component kinds.
const (
	// Spout components pull tuples into the topology from an external
	// source (e.g. a pub-sub system).
	Spout Kind = iota
	// Bolt components apply user-defined processing to tuples received
	// from upstream components.
	Bolt
)

func (k Kind) String() string {
	switch k {
	case Spout:
		return "spout"
	case Bolt:
		return "bolt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Grouping is a stream partitioning strategy: how tuples emitted by the
// upstream component's instances are distributed over the downstream
// component's instances.
type Grouping string

// Stream groupings supported by the simulator and the models.
const (
	// ShuffleGrouping partitions tuples randomly (round-robin) so each
	// downstream instance receives an even 1/p share.
	ShuffleGrouping Grouping = "shuffle"
	// FieldsGrouping routes each tuple by hash of one or more key
	// fields modulo the downstream parallelism, so all tuples with the
	// same key reach the same instance.
	FieldsGrouping Grouping = "fields"
	// AllGrouping replicates every tuple to every downstream instance.
	AllGrouping Grouping = "all"
	// GlobalGrouping routes every tuple to the single lowest-index
	// downstream instance.
	GlobalGrouping Grouping = "global"
)

func (g Grouping) valid() bool {
	switch g {
	case ShuffleGrouping, FieldsGrouping, AllGrouping, GlobalGrouping:
		return true
	}
	return false
}

// Stream is a directed edge between two components.
type Stream struct {
	// Name identifies the stream; components connected by more than one
	// stream must give them distinct names. The default stream is
	// "default".
	Name string
	// From and To are component names.
	From, To string
	// Grouping selects the partitioning strategy.
	Grouping Grouping
	// KeyFields names the tuple fields hashed by FieldsGrouping. It is
	// empty for other groupings.
	KeyFields []string
}

// Resources describes the per-instance resource allocation. The paper's
// evaluation used Heron's round-robin packing with 1 CPU core and 2 GB
// of RAM per instance.
type Resources struct {
	CPUCores float64
	RAMMB    int
}

// DefaultResources matches the paper's evaluation setup.
var DefaultResources = Resources{CPUCores: 1, RAMMB: 2048}

// Component is a logical operator.
type Component struct {
	Name        string
	Kind        Kind
	Parallelism int
	Resources   Resources
}

// Topology is a validated, immutable job graph. Construct it with
// Builder; the zero value is not usable.
type Topology struct {
	name       string
	components map[string]*Component
	streams    []Stream
	inbound    map[string][]Stream // keyed by To
	outbound   map[string][]Stream // keyed by From
	order      []string            // topological order of component names
}

// Builder assembles a Topology. Methods return the builder for
// chaining; errors accumulate and are reported by Build.
type Builder struct {
	name       string
	components map[string]*Component
	streams    []Stream
	errs       []error
}

// NewBuilder starts a topology definition.
func NewBuilder(name string) *Builder {
	b := &Builder{name: name, components: map[string]*Component{}}
	if name == "" {
		b.errs = append(b.errs, errors.New("topology: empty topology name"))
	}
	return b
}

func (b *Builder) addComponent(name string, kind Kind, parallelism int, res Resources) *Builder {
	if name == "" {
		b.errs = append(b.errs, errors.New("topology: empty component name"))
		return b
	}
	if _, dup := b.components[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topology: duplicate component %q", name))
		return b
	}
	if parallelism < 1 {
		b.errs = append(b.errs, fmt.Errorf("topology: component %q parallelism %d < 1", name, parallelism))
		return b
	}
	if res == (Resources{}) {
		res = DefaultResources
	}
	if res.CPUCores <= 0 || res.RAMMB <= 0 {
		b.errs = append(b.errs, fmt.Errorf("topology: component %q non-positive resources %+v", name, res))
		return b
	}
	b.components[name] = &Component{Name: name, Kind: kind, Parallelism: parallelism, Resources: res}
	return b
}

// AddSpout declares a source component with the default resources.
func (b *Builder) AddSpout(name string, parallelism int) *Builder {
	return b.addComponent(name, Spout, parallelism, Resources{})
}

// AddBolt declares a processing component with the default resources.
func (b *Builder) AddBolt(name string, parallelism int) *Builder {
	return b.addComponent(name, Bolt, parallelism, Resources{})
}

// AddBoltWithResources declares a bolt with explicit resources.
func (b *Builder) AddBoltWithResources(name string, parallelism int, res Resources) *Builder {
	return b.addComponent(name, Bolt, parallelism, res)
}

// Connect adds a stream between two declared components.
func (b *Builder) Connect(from, to string, g Grouping, keyFields ...string) *Builder {
	return b.ConnectStream("default", from, to, g, keyFields...)
}

// ConnectStream adds a named stream between two declared components.
func (b *Builder) ConnectStream(name, from, to string, g Grouping, keyFields ...string) *Builder {
	if !g.valid() {
		b.errs = append(b.errs, fmt.Errorf("topology: unknown grouping %q on %s→%s", g, from, to))
		return b
	}
	if g == FieldsGrouping && len(keyFields) == 0 {
		b.errs = append(b.errs, fmt.Errorf("topology: fields grouping %s→%s needs key fields", from, to))
		return b
	}
	if g != FieldsGrouping && len(keyFields) > 0 {
		b.errs = append(b.errs, fmt.Errorf("topology: key fields given for %s grouping %s→%s", g, from, to))
		return b
	}
	for _, s := range b.streams {
		if s.From == from && s.To == to && s.Name == name {
			b.errs = append(b.errs, fmt.Errorf("topology: duplicate stream %q %s→%s", name, from, to))
			return b
		}
	}
	b.streams = append(b.streams, Stream{Name: name, From: from, To: to, Grouping: g, KeyFields: append([]string(nil), keyFields...)})
	return b
}

// Build validates the definition and returns the immutable topology.
func (b *Builder) Build() (*Topology, error) {
	errs := append([]error(nil), b.errs...)
	for _, s := range b.streams {
		if _, ok := b.components[s.From]; !ok {
			errs = append(errs, fmt.Errorf("topology: stream from undeclared component %q", s.From))
		}
		if _, ok := b.components[s.To]; !ok {
			errs = append(errs, fmt.Errorf("topology: stream to undeclared component %q", s.To))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	t := &Topology{
		name:       b.name,
		components: make(map[string]*Component, len(b.components)),
		streams:    append([]Stream(nil), b.streams...),
		inbound:    map[string][]Stream{},
		outbound:   map[string][]Stream{},
	}
	for n, c := range b.components {
		cp := *c
		t.components[n] = &cp
	}
	for _, s := range t.streams {
		t.inbound[s.To] = append(t.inbound[s.To], s)
		t.outbound[s.From] = append(t.outbound[s.From], s)
	}
	for name, c := range t.components {
		switch c.Kind {
		case Spout:
			if len(t.inbound[name]) > 0 {
				errs = append(errs, fmt.Errorf("topology: spout %q has inbound streams", name))
			}
			if len(t.outbound[name]) == 0 {
				errs = append(errs, fmt.Errorf("topology: spout %q has no outbound streams", name))
			}
		case Bolt:
			if len(t.inbound[name]) == 0 {
				errs = append(errs, fmt.Errorf("topology: bolt %q has no inbound streams", name))
			}
		}
	}
	order, err := t.topoSort()
	if err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	t.order = order
	return t, nil
}

// topoSort returns component names in topological order (Kahn), with
// deterministic tie-breaking, or an error if the graph has a cycle.
func (t *Topology) topoSort() ([]string, error) {
	indeg := map[string]int{}
	for name := range t.components {
		indeg[name] = len(t.inbound[name])
	}
	var frontier []string
	for name, d := range indeg {
		if d == 0 {
			frontier = append(frontier, name)
		}
	}
	sort.Strings(frontier)
	var order []string
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		order = append(order, n)
		var next []string
		for _, s := range t.outbound[n] {
			indeg[s.To]--
			if indeg[s.To] == 0 {
				next = append(next, s.To)
			}
		}
		sort.Strings(next)
		frontier = append(frontier, next...)
		sort.Strings(frontier)
	}
	if len(order) != len(t.components) {
		return nil, errors.New("topology: graph contains a cycle")
	}
	return order, nil
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// Component returns the named component, or nil.
func (t *Topology) Component(name string) *Component {
	c := t.components[name]
	if c == nil {
		return nil
	}
	cp := *c
	return &cp
}

// Components returns all components in topological order.
func (t *Topology) Components() []*Component {
	out := make([]*Component, 0, len(t.order))
	for _, n := range t.order {
		cp := *t.components[n]
		out = append(out, &cp)
	}
	return out
}

// ComponentNames returns names in topological order.
func (t *Topology) ComponentNames() []string {
	return append([]string(nil), t.order...)
}

// Streams returns all streams in declaration order.
func (t *Topology) Streams() []Stream {
	return append([]Stream(nil), t.streams...)
}

// Outbound returns streams leaving the component.
func (t *Topology) Outbound(name string) []Stream {
	return append([]Stream(nil), t.outbound[name]...)
}

// Spouts returns spout names in topological order.
func (t *Topology) Spouts() []string {
	var out []string
	for _, n := range t.order {
		if t.components[n].Kind == Spout {
			out = append(out, n)
		}
	}
	return out
}

// Paths enumerates every component-level path from any spout to any
// sink, in deterministic order. For the paper's word-count example this
// is the single path spout→splitter→counter.
func (t *Topology) Paths() [][]string {
	var out [][]string
	var walk func(path []string)
	walk = func(path []string) {
		last := path[len(path)-1]
		outs := t.outbound[last]
		if len(outs) == 0 {
			out = append(out, append([]string(nil), path...))
			return
		}
		sorted := append([]Stream(nil), outs...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].To != sorted[j].To {
				return sorted[i].To < sorted[j].To
			}
			return sorted[i].Name < sorted[j].Name
		})
		seen := map[string]bool{}
		for _, s := range sorted {
			if seen[s.To] {
				continue // multiple streams to the same component share the path
			}
			seen[s.To] = true
			walk(append(path, s.To))
		}
	}
	for _, spout := range t.Spouts() {
		walk([]string{spout})
	}
	return out
}

// InstancePathCount returns the number of distinct instance-level paths
// through the topology, the quantity the paper's Fig. 1(c) discusses
// (16 for the example with spout=2, splitter=2, counter=4). Stream
// managers do not multiply the count.
func (t *Topology) InstancePathCount() int {
	total := 0
	for _, path := range t.Paths() {
		n := 1
		for _, comp := range path {
			n *= t.components[comp].Parallelism
		}
		total += n
	}
	return total
}

// WithParallelism returns a copy of the topology with the given
// component parallelisms replaced. Unknown component names are an
// error; unchanged components keep their current parallelism. This is
// the object Caladrius' dry-run planner evaluates.
func (t *Topology) WithParallelism(changes map[string]int) (*Topology, error) {
	for name, p := range changes {
		if _, ok := t.components[name]; !ok {
			return nil, fmt.Errorf("topology: unknown component %q in parallelism change", name)
		}
		if p < 1 {
			return nil, fmt.Errorf("topology: component %q parallelism %d < 1", name, p)
		}
	}
	nt := &Topology{
		name:       t.name,
		components: make(map[string]*Component, len(t.components)),
		streams:    append([]Stream(nil), t.streams...),
		inbound:    t.inbound,
		outbound:   t.outbound,
		order:      t.order,
	}
	for n, c := range t.components {
		cp := *c
		if p, ok := changes[n]; ok {
			cp.Parallelism = p
		}
		nt.components[n] = &cp
	}
	return nt, nil
}

// Descendants returns every component reachable downstream of name
// (excluding name itself), in topological order.
func (t *Topology) Descendants(name string) []string {
	reach := map[string]bool{}
	var walk func(n string)
	walk = func(n string) {
		for _, s := range t.outbound[n] {
			if !reach[s.To] {
				reach[s.To] = true
				walk(s.To)
			}
		}
	}
	walk(name)
	var out []string
	for _, n := range t.order {
		if reach[n] {
			out = append(out, n)
		}
	}
	return out
}

// InstanceID identifies one parallel instance of a component.
type InstanceID struct {
	Component string
	Index     int // 0-based, < component parallelism
}

func (id InstanceID) String() string {
	return fmt.Sprintf("%s[%d]", id.Component, id.Index)
}

// Instances lists every instance of the topology in topological
// component order, index ascending.
func (t *Topology) Instances() []InstanceID {
	var out []InstanceID
	for _, n := range t.order {
		for i := 0; i < t.components[n].Parallelism; i++ {
			out = append(out, InstanceID{Component: n, Index: i})
		}
	}
	return out
}
