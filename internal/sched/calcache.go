package sched

import (
	"cmp"
	"sync"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/instrument"
)

// Series the calibration cache registers.
const (
	// MetricCalHits counts lookups served from the cache.
	MetricCalHits = "caladrius_calcache_hits_total"
	// MetricCalMisses counts lookups with no usable entry.
	MetricCalMisses = "caladrius_calcache_misses_total"
	// MetricCalStale counts lookups that found an entry but rejected it
	// (plan version or lookback superseded, or TTL expired).
	MetricCalStale = "caladrius_calcache_stale_total"
	// MetricCalInvalidations counts explicit evictions (tracker update,
	// packing-plan change, forced recalibration).
	MetricCalInvalidations = "caladrius_calcache_invalidations_total"
	// MetricCalEntries gauges resident entries.
	MetricCalEntries = "caladrius_calcache_entries"
)

// calKey names one calibration: what an entry answers for, and what a
// flight computes.
type calKey struct {
	topology    string
	planVersion int
	lookback    time.Duration
}

// calEntry is one cached calibrated model. An entry is usable only for
// the exact key it was built from.
type calEntry struct {
	key      calKey
	model    *core.TopologyModel
	storedAt time.Time
}

// CalCacheOptions configures a CalCache.
type CalCacheOptions struct {
	// TTL bounds entry age; 0 means entries never expire by time (they
	// are still evicted by invalidation and superseded by version).
	TTL time.Duration
	// Now is the wall clock (tests). Default time.Now.
	Now func() time.Time
	// Registry receives the caladrius_calcache_* series. Default: a
	// private registry.
	Registry *instrument.Registry
}

// CalCache caches calibrated topology models keyed by topology name,
// with entries validated against (packing-plan version, calibration
// lookback) and an optional TTL. The hit path performs zero heap
// allocations — an RLock, one map probe and an atomic counter — which
// is what makes warm predicts skip the fetch→calibrate stages for free.
// The counters are the registry's; Stats reads them.
type CalCache struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.RWMutex
	entries map[string]calEntry

	// flights is the per-calibration singleflight (see Load).
	flightMu sync.Mutex
	flights  map[calKey]*calFlight

	hitsC    *instrument.Counter
	missesC  *instrument.Counter
	staleC   *instrument.Counter
	invalidC *instrument.Counter
	entriesG *instrument.Gauge
}

// NewCalCache builds an empty cache.
func NewCalCache(opts CalCacheOptions) *CalCache {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	r := cmp.Or(opts.Registry, instrument.NewRegistry())
	r.SetHelp(MetricCalHits, "Calibration-cache lookups served from cache.")
	r.SetHelp(MetricCalMisses, "Calibration-cache lookups with no usable entry.")
	r.SetHelp(MetricCalStale, "Calibration-cache lookups rejected as superseded or expired.")
	r.SetHelp(MetricCalInvalidations, "Calibration-cache entries explicitly evicted.")
	r.SetHelp(MetricCalEntries, "Calibrated topology models resident in the cache.")
	return &CalCache{
		ttl:      opts.TTL,
		now:      opts.Now,
		entries:  map[string]calEntry{},
		flights:  map[calKey]*calFlight{},
		hitsC:    r.Counter(MetricCalHits, nil),
		missesC:  r.Counter(MetricCalMisses, nil),
		staleC:   r.Counter(MetricCalStale, nil),
		invalidC: r.Counter(MetricCalInvalidations, nil),
		entriesG: r.Gauge(MetricCalEntries, nil),
	}
}

// Lookup returns the cached model for topology iff it was calibrated
// against exactly planVersion and lookback and (with a TTL configured)
// has not expired. The hit path is 0 allocs/op.
func (c *CalCache) Lookup(topology string, planVersion int, lookback time.Duration) (*core.TopologyModel, bool) {
	m, present := c.usable(calKey{topology, planVersion, lookback})
	switch {
	case m != nil:
		c.hitsC.Inc()
	case present:
		c.staleC.Inc()
	default:
		c.missesC.Inc()
	}
	return m, m != nil
}

// usable is Lookup without the counting: the model if the topology's
// entry answers for k now, and whether there is an entry at all.
func (c *CalCache) usable(k calKey) (m *core.TopologyModel, present bool) {
	c.mu.RLock()
	e, ok := c.entries[k.topology]
	c.mu.RUnlock()
	if !ok || e.key != k ||
		(c.ttl > 0 && c.now().Sub(e.storedAt) >= c.ttl) {
		return nil, ok
	}
	return e.model, true
}

// CalSource says how Load came by the model it returned; the values are
// the calibrate span's cache attribute.
type CalSource string

const (
	CalHit       CalSource = "hit"       // served from the cache
	CalMiss      CalSource = "miss"      // this call ran calibrate
	CalCoalesced CalSource = "coalesced" // waited on, and shares the outcome of, another call's calibrate
)

// calFlight is one in-progress calibration other Loads of the same
// calKey wait on.
type calFlight struct {
	done  chan struct{}
	model *core.TopologyModel
	err   error
}

// Load is Lookup backed by calibrate: on a miss it runs calibrate and
// Stores the model, and concurrent misses on one (topology, planVersion,
// lookback) share a single run — two predicts on a cold topology
// calibrate once, not twice, while a load at a newer plan version runs
// its own. It counts as one lookup. A failed calibration is handed to
// the calls that joined it and is not cached. calibrate runs with no
// cache lock held, so Lookup and Invalidate do not wait on it; an
// Invalidate during the run does not stop its model being stored.
func (c *CalCache) Load(topology string, planVersion int, lookback time.Duration, calibrate func() (*core.TopologyModel, error)) (*core.TopologyModel, CalSource, error) {
	if m, ok := c.Lookup(topology, planVersion, lookback); ok {
		return m, CalHit, nil
	}
	key := calKey{topology, planVersion, lookback}
	c.flightMu.Lock()
	if f, ok := c.flights[key]; ok {
		c.flightMu.Unlock()
		<-f.done
		return f.model, CalCoalesced, f.err
	}
	f := &calFlight{done: make(chan struct{})}
	c.flights[key] = f
	c.flightMu.Unlock()
	defer func() {
		c.flightMu.Lock()
		delete(c.flights, key)
		c.flightMu.Unlock()
		close(f.done)
	}()
	// A flight that landed between the lookup and taking the lead has
	// filled the cache already.
	if m, _ := c.usable(key); m != nil {
		f.model = m
		return m, CalHit, nil
	}
	if f.model, f.err = calibrate(); f.err == nil {
		c.Store(topology, planVersion, lookback, f.model)
	}
	return f.model, CalMiss, f.err
}

// Store caches model for topology. A later Store for the same topology
// replaces the entry (newest calibration wins).
func (c *CalCache) Store(topology string, planVersion int, lookback time.Duration, model *core.TopologyModel) {
	if model == nil {
		return
	}
	c.mu.Lock()
	c.entries[topology] = calEntry{
		key:      calKey{topology, planVersion, lookback},
		model:    model,
		storedAt: c.now(),
	}
	n := len(c.entries)
	c.mu.Unlock()
	c.entriesG.Set(float64(n))
}

// Invalidate evicts exactly the named topology's entry, reporting
// whether one was present. Tracker updates and packing-plan changes
// call this so the next predict recalibrates against fresh state.
func (c *CalCache) Invalidate(topology string) bool {
	c.mu.Lock()
	_, ok := c.entries[topology]
	if ok {
		delete(c.entries, topology)
	}
	n := len(c.entries)
	c.mu.Unlock()
	if !ok {
		return false
	}
	c.invalidC.Inc()
	c.entriesG.Set(float64(n))
	return true
}

// Len reports resident entries.
func (c *CalCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// CalCacheStats is a point-in-time cache snapshot for the API surface.
type CalCacheStats struct {
	Entries       int     `json:"entries"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Stale         uint64  `json:"stale"`
	Invalidations uint64  `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// Stats snapshots the cache. HitRate is hits over all lookups (0 with
// no lookups yet).
func (c *CalCache) Stats() CalCacheStats {
	st := CalCacheStats{
		Entries:       c.Len(),
		Hits:          uint64(c.hitsC.Value()),
		Misses:        uint64(c.missesC.Value()),
		Stale:         uint64(c.staleC.Value()),
		Invalidations: uint64(c.invalidC.Value()),
	}
	if total := st.Hits + st.Misses + st.Stale; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
