// Package usage implements Caladrius' per-tenant/per-topology resource
// attribution layer: a bounded-cardinality accountant that charges
// every HTTP request and every model run to a principal
// (tenant, topology) and exports the per-principal series the sharded
// model tier's quotas will police.
//
// The paper positions Caladrius as a service fronting many topologies
// at once (§III-A; Daedalus motivates thousands); a service shared by
// many principals must answer "who is consuming it" before it can
// enforce anything. The accountant keeps RED stats (requests, errors,
// latency histogram, in-flight) and resource totals (wall time, CPU
// thread time, allocated bytes, simulator ticks, model runs) per
// principal, in two horizons: cumulative since boot and a trailing
// window of rotating slots for "who is hot right now" ranking.
//
// Cardinality is hard-bounded: at most Capacity live principals are
// tracked, LRU-evicted into a sticky "other" rollup bucket whose
// totals absorb everything the evicted principal had accumulated — so
// the conservation invariant Σ(live)+other = everything-ever-recorded
// holds under arbitrary churn, and a hostile client minting fresh
// tenant headers can never grow the accountant (or the telemetry
// registry behind it) past the cap. Evictions are themselves counted
// (caladrius_usage_evictions_total), so churn pressure is observable.
//
// The record path is the service's per-request hot path and performs
// no allocation in steady state (TestRecordPathDoesNotAllocate).
package usage

import (
	"cmp"
	"sync"
	"time"

	"caladrius/internal/telemetry"
)

// Series the accountant registers per live principal, labelled
// {tenant, topology}. They flow through the self-monitoring scraper
// into the history TSDB like every other registry instrument, so
// query_range, SLO rules and the dash work on them unchanged.
const (
	MetricRequests   = "caladrius_tenant_requests_total"
	MetricErrors     = "caladrius_tenant_errors_total"
	MetricLatency    = "caladrius_tenant_request_duration_seconds"
	MetricInFlight   = "caladrius_tenant_in_flight_requests"
	MetricWallSecs   = "caladrius_tenant_model_wall_seconds_total"
	MetricCPUSecs    = "caladrius_tenant_model_cpu_seconds_total"
	MetricAllocBytes = "caladrius_tenant_model_alloc_bytes_total"
	MetricSimTicks   = "caladrius_tenant_sim_ticks_total"
	MetricRuns       = "caladrius_tenant_model_runs_total"

	// MetricEvictions counts principals rolled into the "other" bucket;
	// MetricPrincipals gauges the live (non-other) principal count.
	MetricEvictions  = "caladrius_usage_evictions_total"
	MetricPrincipals = "caladrius_usage_principals"
)

// Rollup names the sticky eviction bucket. The principal
// (Rollup, Rollup) is reserved: anything a real client sends under it
// shares the bucket with evicted history.
const Rollup = "other"

// Principal identifies who a request or model run is charged to.
type Principal struct {
	Tenant   string `json:"tenant"`
	Topology string `json:"topology"`
}

// Totals is one principal's accumulated consumption. All fields are
// monotonic within one horizon (cumulative or window slot).
type Totals struct {
	// Requests and Errors count HTTP requests attributed to the
	// principal; Errors is the 5xx subset.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// LatencyNanos sums attributed request wall time (the mean latency
	// numerator; the full distribution is in the registry histogram).
	LatencyNanos uint64 `json:"latency_ns"`
	// Runs counts model runs (predict/plan/calibrate); the remaining
	// fields are the per-run resource deltas measured around them.
	Runs       uint64 `json:"runs"`
	WallNanos  uint64 `json:"wall_ns"`
	CPUNanos   uint64 `json:"cpu_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	SimTicks   uint64 `json:"sim_ticks"`
}

func (t *Totals) add(o Totals) {
	t.Requests += o.Requests
	t.Errors += o.Errors
	t.LatencyNanos += o.LatencyNanos
	t.Runs += o.Runs
	t.WallNanos += o.WallNanos
	t.CPUNanos += o.CPUNanos
	t.AllocBytes += o.AllocBytes
	t.SimTicks += o.SimTicks
}

// windowSlots is the trailing-window resolution: the window is divided
// into this many rotating slots, expired lazily by epoch.
const windowSlots = 8

// instruments holds one principal's registry series.
type instruments struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
	inFlight *telemetry.Gauge
	wall     *telemetry.Counter
	cpu      *telemetry.Counter
	allocs   *telemetry.Counter
	ticks    *telemetry.Counter
	runs     *telemetry.Counter
}

type entry struct {
	p        Principal
	inFlight int64
	tot      Totals
	win      [windowSlots]Totals
	winEpoch [windowSlots]int64
	inst     *instruments

	// LRU list links; the other-bucket entry is not on the list.
	prev, next *entry
}

// Options configures an Accountant.
type Options struct {
	// Capacity bounds live principals (the top-K cap).
	Capacity int
	// Window is the trailing ranking window.
	Window time.Duration
	// Now stamps window slots. Default time.Now.
	Now func() time.Time
	// Registry receives per-principal series and the accountant's
	// self-metrics. Default: a private registry.
	Registry *telemetry.Registry
}

// Accountant is the bounded per-principal usage meter. All methods are
// safe for concurrent use.
type Accountant struct {
	capacity int
	window   time.Duration
	slotDur  time.Duration
	now      func() time.Time
	reg      *telemetry.Registry

	evictions  *telemetry.Counter
	principals *telemetry.Gauge

	mu      sync.Mutex
	entries map[Principal]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	other   *entry // sticky rollup bucket, created lazily
}

// New builds an accountant.
func New(opts Options) *Accountant {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	opts.Registry = cmp.Or(opts.Registry, telemetry.NewRegistry())
	a := &Accountant{
		capacity: opts.Capacity,
		window:   opts.Window,
		slotDur:  opts.Window / windowSlots,
		now:      opts.Now,
		reg:      opts.Registry,
		entries:  make(map[Principal]*entry, opts.Capacity+1),
	}
	if a.slotDur <= 0 {
		a.slotDur = time.Second
	}
	a.reg.SetHelp(MetricRequests, "Requests attributed to a (tenant, topology) principal.")
	a.reg.SetHelp(MetricErrors, "5xx responses attributed to a principal.")
	a.reg.SetHelp(MetricLatency, "Attributed request latency, by principal.")
	a.reg.SetHelp(MetricInFlight, "Requests currently in flight, by principal.")
	a.reg.SetHelp(MetricWallSecs, "Model-run wall time attributed to a principal.")
	a.reg.SetHelp(MetricCPUSecs, "Model-run CPU thread time attributed to a principal.")
	a.reg.SetHelp(MetricAllocBytes, "Model-run heap bytes allocated, attributed to a principal.")
	a.reg.SetHelp(MetricSimTicks, "Simulator ticks attributed to a principal.")
	a.reg.SetHelp(MetricRuns, "Model runs (predict/plan/calibrate) attributed to a principal.")
	a.reg.SetHelp(MetricEvictions, "Principals LRU-evicted into the usage rollup bucket.")
	a.reg.SetHelp(MetricPrincipals, "Live principals tracked by the usage accountant.")
	a.evictions = a.reg.Counter(MetricEvictions, nil)
	a.principals = a.reg.Gauge(MetricPrincipals, nil)
	return a
}

// Capacity returns the live-principal cap K.
func (a *Accountant) Capacity() int { return a.capacity }

// Window returns the trailing ranking window.
func (a *Accountant) Window() time.Duration { return a.window }

// Len returns the live principal count (excluding the rollup bucket).
func (a *Accountant) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.entries)
	if a.other != nil {
		n--
	}
	return n
}

// Evictions returns how many principals were rolled into "other".
func (a *Accountant) Evictions() uint64 {
	return uint64(a.evictions.Value())
}

// Begin marks one request in flight for the principal.
func (a *Accountant) Begin(tenant, topology string) {
	a.mu.Lock()
	e := a.getLocked(Principal{Tenant: tenant, Topology: topology})
	e.inFlight++
	e.inst.inFlight.Inc()
	a.mu.Unlock()
}

// Finish attributes one completed request: decrements in-flight,
// counts the request (and the error when status ≥ 500) and observes
// the latency. The Begin/Finish pair is the middleware contract; if
// the principal was evicted in between, Finish recreates it and the
// in-flight residue heals through the rollup bucket.
func (a *Accountant) Finish(tenant, topology string, status int, elapsed time.Duration) {
	if elapsed < 0 {
		elapsed = 0
	}
	a.mu.Lock()
	e := a.getLocked(Principal{Tenant: tenant, Topology: topology})
	e.inFlight--
	w := a.slotLocked(e)
	e.tot.Requests++
	w.Requests++
	e.tot.LatencyNanos += uint64(elapsed)
	w.LatencyNanos += uint64(elapsed)
	isErr := status >= 500
	if isErr {
		e.tot.Errors++
		w.Errors++
	}
	e.inst.inFlight.Dec()
	e.inst.requests.Inc()
	if isErr {
		e.inst.errors.Inc()
	}
	e.inst.latency.Observe(elapsed.Seconds())
	a.mu.Unlock()
}

// RecordRun attributes one model run's resource deltas (wall time,
// CPU thread time, allocated heap bytes, simulator ticks) to the
// principal. This is the hook the API tier calls with the
// core.RunCost measured around each predict/plan/calibrate run.
func (a *Accountant) RecordRun(tenant, topology string, wall, cpu time.Duration, allocBytes, simTicks uint64) {
	if wall < 0 {
		wall = 0
	}
	if cpu < 0 {
		cpu = 0
	}
	a.mu.Lock()
	e := a.getLocked(Principal{Tenant: tenant, Topology: topology})
	w := a.slotLocked(e)
	e.tot.Runs++
	w.Runs++
	e.tot.WallNanos += uint64(wall)
	w.WallNanos += uint64(wall)
	e.tot.CPUNanos += uint64(cpu)
	w.CPUNanos += uint64(cpu)
	e.tot.AllocBytes += allocBytes
	w.AllocBytes += allocBytes
	e.tot.SimTicks += simTicks
	w.SimTicks += simTicks
	e.inst.runs.Inc()
	e.inst.wall.Add(wall.Seconds())
	e.inst.cpu.Add(cpu.Seconds())
	e.inst.allocs.Add(float64(allocBytes))
	e.inst.ticks.Add(float64(simTicks))
	a.mu.Unlock()
}

// getLocked finds or creates the principal's entry, touching it in the
// LRU order, evicting if the cap is reached. The rollup principal maps
// onto the sticky other bucket.
func (a *Accountant) getLocked(p Principal) *entry {
	if e, ok := a.entries[p]; ok {
		if e != a.other {
			a.touchLocked(e)
		}
		return e
	}
	if p.Tenant == Rollup && p.Topology == Rollup {
		return a.otherLocked()
	}
	live := len(a.entries)
	if a.other != nil {
		live--
	}
	if live >= a.capacity {
		a.evictLocked()
	}
	e := &entry{p: p, inst: a.registerLocked(p)}
	a.entries[p] = e
	a.pushFrontLocked(e)
	a.principals.Set(float64(len(a.entries) - a.otherCount()))
	return e
}

func (a *Accountant) otherCount() int {
	if a.other != nil {
		return 1
	}
	return 0
}

func (a *Accountant) registerLocked(p Principal) *instruments {
	l := telemetry.Labels{"tenant": p.Tenant, "topology": p.Topology}
	return &instruments{
		requests: a.reg.Counter(MetricRequests, l),
		errors:   a.reg.Counter(MetricErrors, l),
		latency:  a.reg.Histogram(MetricLatency, telemetry.DefLatencyBuckets, l),
		inFlight: a.reg.Gauge(MetricInFlight, l),
		wall:     a.reg.Counter(MetricWallSecs, l),
		cpu:      a.reg.Counter(MetricCPUSecs, l),
		allocs:   a.reg.Counter(MetricAllocBytes, l),
		ticks:    a.reg.Counter(MetricSimTicks, l),
		runs:     a.reg.Counter(MetricRuns, l),
	}
}

func (a *Accountant) unregisterLocked(p Principal) {
	l := telemetry.Labels{"tenant": p.Tenant, "topology": p.Topology}
	for _, name := range []string{
		MetricRequests, MetricErrors, MetricLatency, MetricInFlight,
		MetricWallSecs, MetricCPUSecs, MetricAllocBytes, MetricSimTicks, MetricRuns,
	} {
		a.reg.Unregister(name, l)
	}
}

// otherLocked lazily creates the sticky rollup bucket. It never sits
// on the LRU list and is never evicted.
func (a *Accountant) otherLocked() *entry {
	if a.other == nil {
		p := Principal{Tenant: Rollup, Topology: Rollup}
		a.other = &entry{p: p, inst: a.registerLocked(p)}
		a.entries[p] = a.other
	}
	return a.other
}

// evictLocked rolls the least-recently-used principal into the other
// bucket: cumulative totals, live window slots, in-flight residue and
// the latency histogram all merge, then the principal's registry
// series are removed. Entries with requests still in flight are
// skipped if a nearby idle victim exists (bounded scan), so gauges
// stay sane under normal load; under pathological all-in-flight churn
// the cap still wins and the LRU entry goes regardless.
func (a *Accountant) evictLocked() {
	victim := a.tail
	for cand, scanned := a.tail, 0; cand != nil && scanned < 4; cand, scanned = cand.prev, scanned+1 {
		if cand.inFlight == 0 {
			victim = cand
			break
		}
	}
	if victim == nil {
		return
	}
	o := a.otherLocked()
	o.tot.add(victim.tot)
	o.inFlight += victim.inFlight
	epoch := a.epochNow()
	for i := range victim.win {
		ve := victim.winEpoch[i]
		if ve <= epoch-windowSlots {
			continue // outside the trailing window
		}
		switch {
		case o.winEpoch[i] == ve:
			o.win[i].add(victim.win[i])
		case o.winEpoch[i] < ve:
			o.win[i] = victim.win[i]
			o.winEpoch[i] = ve
		}
	}
	o.inst.requests.Add(float64(victim.tot.Requests))
	o.inst.errors.Add(float64(victim.tot.Errors))
	o.inst.latency.Merge(victim.inst.latency)
	o.inst.inFlight.Add(float64(victim.inFlight))
	o.inst.wall.Add(time.Duration(victim.tot.WallNanos).Seconds())
	o.inst.cpu.Add(time.Duration(victim.tot.CPUNanos).Seconds())
	o.inst.allocs.Add(float64(victim.tot.AllocBytes))
	o.inst.ticks.Add(float64(victim.tot.SimTicks))
	o.inst.runs.Add(float64(victim.tot.Runs))
	a.removeLocked(victim)
	delete(a.entries, victim.p)
	a.unregisterLocked(victim.p)
	a.evictions.Inc()
}

// --- LRU list ---------------------------------------------------------------

func (a *Accountant) pushFrontLocked(e *entry) {
	e.prev, e.next = nil, a.head
	if a.head != nil {
		a.head.prev = e
	}
	a.head = e
	if a.tail == nil {
		a.tail = e
	}
}

func (a *Accountant) removeLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		a.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		a.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (a *Accountant) touchLocked(e *entry) {
	if a.head == e {
		return
	}
	a.removeLocked(e)
	a.pushFrontLocked(e)
}

// --- trailing window --------------------------------------------------------

func (a *Accountant) epochNow() int64 {
	return a.now().UnixNano() / int64(a.slotDur)
}

// slotLocked returns the entry's current window slot, zeroing it first
// if its epoch is stale (lazy rotation; no background goroutine).
func (a *Accountant) slotLocked(e *entry) *Totals {
	epoch := a.epochNow()
	i := int(epoch % windowSlots)
	if e.winEpoch[i] != epoch {
		e.win[i] = Totals{}
		e.winEpoch[i] = epoch
	}
	return &e.win[i]
}

// windowLocked sums the entry's non-expired slots.
func (e *entry) windowLocked(epoch int64) Totals {
	var t Totals
	for i := range e.win {
		if e.winEpoch[i] > epoch-windowSlots {
			t.add(e.win[i])
		}
	}
	return t
}

// PrincipalUsage is one principal's snapshot.
type PrincipalUsage struct {
	Principal
	// Rollup marks the sticky "other" bucket holding evicted history.
	Rollup   bool   `json:"rollup,omitempty"`
	InFlight int64  `json:"in_flight"`
	Totals   Totals `json:"totals"`
	// Window is consumption over the trailing ranking window.
	Window Totals `json:"window"`
}

// Snapshot returns every live principal plus the rollup bucket (when
// it exists), in unspecified order.
func (a *Accountant) Snapshot() []PrincipalUsage {
	a.mu.Lock()
	defer a.mu.Unlock()
	epoch := a.epochNow()
	out := make([]PrincipalUsage, 0, len(a.entries))
	for _, e := range a.entries {
		out = append(out, PrincipalUsage{
			Principal: e.p,
			Rollup:    e == a.other,
			InFlight:  e.inFlight,
			Totals:    e.tot,
			Window:    e.windowLocked(epoch),
		})
	}
	return out
}
