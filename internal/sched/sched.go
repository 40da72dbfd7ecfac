// Package sched implements Caladrius' fleet-scale model-run scheduler:
// the bounded execution tier every predict/plan/calibrate request is
// funnelled through when the service fronts many topologies at once.
//
// The paper positions Caladrius as a shared service (§III-A; Daedalus
// motivates thousands of topologies), but an unbounded
// goroutine-per-request model tier melts under fan-in: every request
// re-runs the fetch→calibrate pipeline and the queue is whatever the
// Go runtime lets pile up. The scheduler replaces that with three
// layers:
//
//   - a bounded worker pool consuming a depth-bounded priority queue of
//     per-(topology, kind) work items, so model-run concurrency is a
//     configuration knob, not an accident of load;
//   - request coalescing: concurrent identical runs (same topology,
//     kind and inputs hash) share one in-flight execution,
//     singleflight-style, and fan the result out to every waiter;
//   - admission control with per-tenant fair-share slots: when the
//     queue is deep, a tenant already at or above its fair share is
//     shed (ErrOverloaded → HTTP 429 + Retry-After) while tenants
//     below theirs are still admitted — a flooding tenant cannot
//     starve the rest.
//
// Everything is observable: caladrius_sched_* series (queue depth,
// busy workers, queue-wait histogram, runs/coalesced by kind, sheds by
// tenant) flow through the self-monitoring scraper like every other
// registry instrument, and each queued run's wait appears as a
// "queue-wait" span in its request trace.
package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/telemetry"
)

// Series the scheduler registers.
const (
	// MetricQueueDepth gauges items waiting in the priority queue.
	MetricQueueDepth = "caladrius_sched_queue_depth"
	// MetricWorkersBusy gauges workers currently executing a run.
	MetricWorkersBusy = "caladrius_sched_workers_busy"
	// MetricWaitSeconds is the queue-wait histogram (enqueue→dequeue).
	MetricWaitSeconds = "caladrius_sched_queue_wait_seconds"
	// MetricRuns counts executed runs, by kind.
	MetricRuns = "caladrius_sched_runs_total"
	// MetricCoalesced counts submissions that joined an in-flight
	// identical run instead of enqueueing their own, by kind.
	MetricCoalesced = "caladrius_sched_coalesced_total"
	// MetricSheds counts admissions rejected by load shedding, by
	// tenant (cardinality-capped; overflow tenants count under "other").
	MetricSheds = "caladrius_sched_sheds_total"
)

// shedTenantCap bounds the distinct tenant labels MetricSheds can
// carry; tenants beyond the cap count under ShedOverflowTenant. A
// hostile client minting fresh tenant headers cannot grow the registry
// through the shed path.
const (
	shedTenantCap      = 32
	ShedOverflowTenant = "other"
)

// Priority orders queue service. Lower values run first.
type Priority int

// Priorities. Interactive (sync) requests outrank queued background
// work; batch analyses (rank/backtest) yield to both.
const (
	High Priority = iota
	Normal
	Low
	numPriorities
)

// Request identifies one unit of model work. Topology+Kind name the
// work item; Tenant feeds fair-share admission; Hash is the inputs
// fingerprint coalescing keys on (0 disables coalescing for the
// request — e.g. forced recalibrations that must each run).
type Request struct {
	Topology string
	Kind     string
	Tenant   string
	Hash     uint64
	Priority Priority
}

// ErrOverloaded is returned by Submit when admission control sheds the
// request. RetryAfter estimates when capacity will free up, sized from
// the recent mean run time and the current backlog — the API tier
// turns it into HTTP 429 with a Retry-After header.
type ErrOverloaded struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("sched: overloaded, tenant %q at fair share (retry after %s)", e.Tenant, e.RetryAfter)
}

// ErrClosed is returned for submissions after Close, and completes any
// still-queued item the scheduler drained on shutdown.
var ErrClosed = errors.New("sched: scheduler closed")

// run is the shared completion state of one execution; coalesced
// followers hold the same run as the leader.
type run struct {
	mu        sync.Mutex
	done      chan struct{}
	result    any
	err       error
	callbacks []func(any, error)
}

func (r *run) complete(result any, err error) {
	r.mu.Lock()
	r.result, r.err = result, err
	cbs := r.callbacks
	r.callbacks = nil
	close(r.done)
	r.mu.Unlock()
	for _, cb := range cbs {
		cb(result, err)
	}
}

// Handle is a submitted run's future.
type Handle struct {
	r         *run
	coalesced bool
}

// Coalesced reports whether the submission joined an already in-flight
// identical run instead of enqueueing its own.
func (h Handle) Coalesced() bool { return h.coalesced }

// Wait blocks until the run completes or ctx is cancelled. A cancelled
// waiter abandons only its wait: the run itself keeps executing (other
// waiters may share it) and still lands in the audit ledger.
func (h Handle) Wait(ctx context.Context) (any, error) {
	select {
	case <-h.r.done:
		return h.r.result, h.r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// OnDone registers a completion callback (the async-job hook). If the
// run already completed the callback runs synchronously.
func (h Handle) OnDone(f func(result any, err error)) {
	h.r.mu.Lock()
	select {
	case <-h.r.done:
		result, err := h.r.result, h.r.err
		h.r.mu.Unlock()
		f(result, err)
		return
	default:
	}
	h.r.callbacks = append(h.r.callbacks, f)
	h.r.mu.Unlock()
}

// flightKey identifies coalescable work.
type flightKey struct {
	topology string
	kind     string
	hash     uint64
}

// item is one queued work unit.
type item struct {
	req      Request
	fn       func(context.Context) (any, error)
	ctx      context.Context
	r        *run
	key      flightKey // zero hash = not in the flight map
	enqueued time.Time
	waitSpan *telemetry.Span
	next     *item
}

// fifo is a singly-linked queue of items.
type fifo struct {
	head, tail *item
}

func (q *fifo) push(it *item) {
	if q.tail == nil {
		q.head, q.tail = it, it
		return
	}
	q.tail.next = it
	q.tail = it
}

func (q *fifo) pop() *item {
	it := q.head
	if it == nil {
		return nil
	}
	q.head = it.next
	if q.head == nil {
		q.tail = nil
	}
	it.next = nil
	return it
}

// Options configures a Scheduler.
type Options struct {
	// Workers bounds concurrent model runs. Default max(2, GOMAXPROCS).
	Workers int
	// QueueDepth bounds waiting items before admission control sheds.
	QueueDepth int
	// Registry receives the caladrius_sched_* series. Default: a
	// private registry.
	Registry *instrument.Registry
}

// Scheduler is the bounded model-run execution tier. All methods are
// safe for concurrent use.
type Scheduler struct {
	workers int
	depth   int
	reg     *instrument.Registry

	queueDepthG *instrument.Gauge
	busyG       *instrument.Gauge
	waitHist    *instrument.Histogram

	mu          sync.Mutex
	cond        *sync.Cond
	queues      [numPriorities]fifo
	queued      int
	tenants     map[string]int // queued+running leaders per tenant
	inflight    map[flightKey]*run
	runCounts   map[string]*kindCounters // by kind
	shedByT     map[string]*instrument.Counter
	closed      bool
	busy        int
	avgRunNanos float64 // EWMA of completed run durations
	wg          sync.WaitGroup
}

type kindCounters struct {
	runs      *instrument.Counter
	coalesced *instrument.Counter
}

// New builds a scheduler and starts its workers.
func New(opts Options) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers < 2 {
			opts.Workers = 2
		}
	}
	opts.Registry = cmp.Or(opts.Registry, instrument.NewRegistry())
	s := &Scheduler{
		workers:   opts.Workers,
		depth:     opts.QueueDepth,
		reg:       opts.Registry,
		tenants:   map[string]int{},
		inflight:  map[flightKey]*run{},
		runCounts: map[string]*kindCounters{},
		shedByT:   map[string]*instrument.Counter{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.reg.SetHelp(MetricQueueDepth, "Model runs waiting in the scheduler queue.")
	s.reg.SetHelp(MetricWorkersBusy, "Scheduler workers currently executing a model run.")
	s.reg.SetHelp(MetricWaitSeconds, "Time model runs spend queued before a worker picks them up.")
	s.reg.SetHelp(MetricRuns, "Model runs executed by the scheduler, by kind.")
	s.reg.SetHelp(MetricCoalesced, "Submissions that joined an in-flight identical run, by kind.")
	s.reg.SetHelp(MetricSheds, "Submissions shed by admission control, by tenant (cardinality-capped).")
	s.queueDepthG = s.reg.Gauge(MetricQueueDepth, nil)
	s.busyG = s.reg.Gauge(MetricWorkersBusy, nil)
	s.waitHist = s.reg.Histogram(MetricWaitSeconds, instrument.DefLatencyBuckets, nil)
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
	return s
}

// Submit enqueues one model run, or joins an identical in-flight one.
// The returned Handle resolves when the run completes. ErrOverloaded
// means admission control shed the request; ErrClosed means the
// scheduler is shutting down. The run executes on a worker under a
// cancellation-detached copy of ctx (trace span and tenant ride along;
// a disconnecting client does not poison waiters sharing the run).
func (s *Scheduler) Submit(ctx context.Context, req Request, fn func(context.Context) (any, error)) (Handle, error) {
	if req.Priority < High || req.Priority >= numPriorities {
		req.Priority = Normal
	}
	key := flightKey{topology: req.Topology, kind: req.Kind, hash: req.Hash}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Handle{}, ErrClosed
	}
	if req.Hash != 0 {
		if r, ok := s.inflight[key]; ok {
			kc := s.kindCountersLocked(req.Kind)
			s.mu.Unlock()
			kc.coalesced.Inc()
			return Handle{r: r, coalesced: true}, nil
		}
	}
	// Admission: with the queue at depth, only tenants below their fair
	// share (queue depth split across tenants with work in the system)
	// may still enqueue. Those fairness admissions can push the queue
	// past depth, but never past 2×depth — the hard cap also stops a
	// client minting fresh tenant names from growing the queue.
	active := len(s.tenants)
	if s.tenants[req.Tenant] == 0 {
		active++
	}
	fair := s.depth / active
	if fair < 1 {
		fair = 1
	}
	if s.queued >= s.depth && (s.tenants[req.Tenant] >= fair || s.queued >= 2*s.depth) {
		retry := s.retryAfterLocked()
		shedC := s.shedCounterLocked(req.Tenant)
		s.mu.Unlock()
		shedC.Inc()
		return Handle{}, &ErrOverloaded{Tenant: req.Tenant, RetryAfter: retry}
	}
	r := &run{done: make(chan struct{})}
	it := &item{
		req:      req,
		fn:       fn,
		ctx:      context.WithoutCancel(ctx),
		r:        r,
		enqueued: time.Now(),
		waitSpan: telemetry.SpanFromContext(ctx).Child("queue-wait"),
	}
	if req.Hash != 0 {
		it.key = key
		s.inflight[key] = r
	}
	s.queues[req.Priority].push(it)
	s.queued++
	s.tenants[req.Tenant]++
	s.queueDepthG.Set(float64(s.queued))
	s.cond.Signal()
	s.mu.Unlock()
	return Handle{r: r}, nil
}

// retryAfterLocked estimates when a shed client should retry: the
// backlog drained at the recent mean run time across the pool,
// clamped to [1s, 60s]. Caller holds s.mu.
func (s *Scheduler) retryAfterLocked() time.Duration {
	avg := s.avgRunNanos
	if avg <= 0 {
		avg = float64(100 * time.Millisecond)
	}
	est := time.Duration(avg * float64(s.queued+1) / float64(s.workers))
	est = est.Round(time.Second)
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// kindCountersLocked interns the per-kind run/coalesced counters.
// Kinds come from the API tier's fixed route set, so cardinality is
// naturally bounded. Caller holds s.mu.
func (s *Scheduler) kindCountersLocked(kind string) *kindCounters {
	kc, ok := s.runCounts[kind]
	if !ok {
		kc = &kindCounters{
			runs:      s.reg.Counter(MetricRuns, instrument.Labels{"kind": kind}),
			coalesced: s.reg.Counter(MetricCoalesced, instrument.Labels{"kind": kind}),
		}
		s.runCounts[kind] = kc
	}
	return kc
}

// shedCounterLocked interns the per-tenant shed counter, capped at
// shedTenantCap distinct tenants (overflow → "other"). Caller holds
// s.mu.
func (s *Scheduler) shedCounterLocked(tenant string) *instrument.Counter {
	if c, ok := s.shedByT[tenant]; ok {
		return c
	}
	if len(s.shedByT) >= shedTenantCap {
		tenant = ShedOverflowTenant
		if c, ok := s.shedByT[tenant]; ok {
			return c
		}
	}
	c := s.reg.Counter(MetricSheds, instrument.Labels{"tenant": tenant})
	s.shedByT[tenant] = c
	return c
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queued == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		var it *item
		for p := 0; p < int(numPriorities); p++ {
			if it = s.queues[p].pop(); it != nil {
				break
			}
		}
		s.queued--
		s.busy++
		s.queueDepthG.Set(float64(s.queued))
		s.busyG.Set(float64(s.busy))
		kc := s.kindCountersLocked(it.req.Kind)
		s.mu.Unlock()

		s.waitHist.Observe(time.Since(it.enqueued).Seconds())
		it.waitSpan.End()
		start := time.Now()
		result, err := runSafely(it.ctx, it.fn)
		elapsed := time.Since(start)

		s.mu.Lock()
		s.busy--
		s.busyG.Set(float64(s.busy))
		if s.tenants[it.req.Tenant]--; s.tenants[it.req.Tenant] <= 0 {
			delete(s.tenants, it.req.Tenant)
		}
		if it.key.hash != 0 {
			delete(s.inflight, it.key)
		}
		// EWMA (α=0.2) of run time feeds the Retry-After estimate.
		if s.avgRunNanos == 0 {
			s.avgRunNanos = float64(elapsed)
		} else {
			s.avgRunNanos += 0.2 * (float64(elapsed) - s.avgRunNanos)
		}
		s.mu.Unlock()
		kc.runs.Inc()
		it.r.complete(result, err)
	}
}

// runSafely executes fn, converting a panic into an error so one bad
// run cannot take a worker (or the process) down.
func runSafely(ctx context.Context, fn func(context.Context) (any, error)) (result any, err error) {
	defer func() {
		if v := recover(); v != nil {
			result, err = nil, fmt.Errorf("sched: model run panicked: %v", v)
		}
	}()
	return fn(ctx)
}

// Close stops admission, fails every still-queued item with ErrClosed
// and waits for in-flight runs to finish.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var drained []*item
	for p := 0; p < int(numPriorities); p++ {
		for it := s.queues[p].pop(); it != nil; it = s.queues[p].pop() {
			drained = append(drained, it)
		}
	}
	s.queued = 0
	for _, it := range drained {
		if s.tenants[it.req.Tenant]--; s.tenants[it.req.Tenant] <= 0 {
			delete(s.tenants, it.req.Tenant)
		}
		if it.key.hash != 0 {
			delete(s.inflight, it.key)
		}
	}
	s.queueDepthG.Set(0)
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, it := range drained {
		it.waitSpan.End()
		it.r.complete(nil, ErrClosed)
	}
	s.wg.Wait()
}

// Stats is a point-in-time scheduler snapshot for the API surface.
type Stats struct {
	Workers       int     `json:"workers"`
	QueueLimit    int     `json:"queue_limit"`
	Queued        int     `json:"queued"`
	Busy          int     `json:"busy"`
	Runs          uint64  `json:"runs"`
	Coalesced     uint64  `json:"coalesced"`
	Sheds         uint64  `json:"sheds"`
	ActiveTenants int     `json:"active_tenants"`
	MeanRunMs     float64 `json:"mean_run_ms"`
}

// Stats snapshots the scheduler. Runs, Coalesced and Sheds sum the
// per-kind and per-tenant counters /metrics exports.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:       s.workers,
		QueueLimit:    s.depth,
		Queued:        s.queued,
		Busy:          s.busy,
		ActiveTenants: len(s.tenants),
		MeanRunMs:     s.avgRunNanos / float64(time.Millisecond),
	}
	for _, kc := range s.runCounts {
		st.Runs += uint64(kc.runs.Value())
		st.Coalesced += uint64(kc.coalesced.Value())
	}
	for _, c := range s.shedByT {
		st.Sheds += uint64(c.Value())
	}
	return st
}

// Hash64 is the FNV-1a fingerprint helper callers build request input
// hashes with. Hashing the canonical encoding of a request's inputs
// (topology, kind, body) keys coalescing; 0 is reserved for "never
// coalesce", so a genuine zero digest is nudged.
func Hash64(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= prime64
	}
	if h == 0 {
		h = offset64
	}
	return h
}
