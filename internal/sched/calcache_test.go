package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/instrument"
)

func testModel(t *testing.T) *core.TopologyModel {
	t.Helper()
	return &core.TopologyModel{}
}

func TestCalCacheLookupStore(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	if _, ok := c.Lookup("wc", 1, time.Minute); ok {
		t.Fatal("empty cache returned a hit")
	}
	m := testModel(t)
	c.Store("wc", 1, time.Minute, m)
	got, ok := c.Lookup("wc", 1, time.Minute)
	if !ok || got != m {
		t.Fatalf("Lookup after Store = %v, %v; want stored model", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("Stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestCalCacheKeyedValidation: an entry only serves the exact plan
// version and calibration lookback it was calibrated against.
func TestCalCacheKeyedValidation(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	c.Store("wc", 3, 10*time.Minute, testModel(t))
	cases := []struct {
		name     string
		version  int
		lookback time.Duration
		wantHit  bool
	}{
		{"exact match", 3, 10 * time.Minute, true},
		{"older plan version", 2, 10 * time.Minute, false},
		{"newer plan version", 4, 10 * time.Minute, false},
		{"different window", 3, 5 * time.Minute, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := c.Lookup("wc", tc.version, tc.lookback); ok != tc.wantHit {
				t.Fatalf("Lookup(v=%d, lookback=%s) hit = %v; want %v", tc.version, tc.lookback, ok, tc.wantHit)
			}
		})
	}
	if st := c.Stats(); st.Stale != 3 {
		t.Fatalf("Stats.Stale = %d; want 3 (superseded lookups)", st.Stale)
	}
}

func TestCalCacheTTL(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	c := NewCalCache(CalCacheOptions{TTL: time.Minute, Now: clock})
	c.Store("wc", 1, time.Minute, testModel(t))
	if _, ok := c.Lookup("wc", 1, time.Minute); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.Lookup("wc", 1, time.Minute); !ok {
		t.Fatal("entry expired before TTL")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Lookup("wc", 1, time.Minute); ok {
		t.Fatal("entry served past TTL")
	}
	if st := c.Stats(); st.Stale != 1 {
		t.Fatalf("Stats.Stale = %d; want 1 (TTL expiry)", st.Stale)
	}
}

func TestCalCacheZeroTTLNeverExpires(t *testing.T) {
	now := time.Unix(1700000000, 0)
	c := NewCalCache(CalCacheOptions{Now: func() time.Time { return now }})
	c.Store("wc", 1, time.Minute, testModel(t))
	now = now.Add(1000 * time.Hour)
	if _, ok := c.Lookup("wc", 1, time.Minute); !ok {
		t.Fatal("TTL-less entry expired")
	}
}

// TestCalCacheInvalidationScope: invalidating one topology (the
// tracker-update / packing-plan-change path) evicts exactly that
// topology's entry and nothing else.
func TestCalCacheInvalidationScope(t *testing.T) {
	cases := []struct {
		name       string
		stored     []string
		invalidate string
		wantGone   []string
		wantKept   []string
		wantHit    bool
	}{
		{
			name:       "tracker update evicts only the updated topology",
			stored:     []string{"wordcount", "adclicks", "fraud"},
			invalidate: "adclicks",
			wantGone:   []string{"adclicks"},
			wantKept:   []string{"wordcount", "fraud"},
			wantHit:    true,
		},
		{
			name:       "packing-plan change on one topology leaves siblings warm",
			stored:     []string{"wordcount", "adclicks"},
			invalidate: "wordcount",
			wantGone:   []string{"wordcount"},
			wantKept:   []string{"adclicks"},
			wantHit:    true,
		},
		{
			name:       "invalidating an uncached topology is a no-op",
			stored:     []string{"wordcount"},
			invalidate: "ghost",
			wantGone:   nil,
			wantKept:   []string{"wordcount"},
			wantHit:    false,
		},
		{
			name:       "invalidating an empty cache is a no-op",
			stored:     nil,
			invalidate: "anything",
			wantGone:   nil,
			wantKept:   nil,
			wantHit:    false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCalCache(CalCacheOptions{})
			for _, topo := range tc.stored {
				c.Store(topo, 1, time.Minute, testModel(t))
			}
			if got := c.Invalidate(tc.invalidate); got != tc.wantHit {
				t.Fatalf("Invalidate(%q) = %v; want %v", tc.invalidate, got, tc.wantHit)
			}
			for _, topo := range tc.wantGone {
				if _, ok := c.Lookup(topo, 1, time.Minute); ok {
					t.Fatalf("topology %q still cached after invalidation", topo)
				}
			}
			for _, topo := range tc.wantKept {
				if _, ok := c.Lookup(topo, 1, time.Minute); !ok {
					t.Fatalf("topology %q wrongly evicted", topo)
				}
			}
			if got, want := c.Len(), len(tc.wantKept); got != want {
				t.Fatalf("Len = %d; want %d", got, want)
			}
		})
	}
}

// TestCalCacheConcurrentInvalidateLookup races lookups, stores and
// invalidations across topologies; run under -race this is the
// invalidation race coverage the scheduler contract requires.
func TestCalCacheConcurrentInvalidateLookup(t *testing.T) {
	reg := instrument.NewRegistry()
	c := NewCalCache(CalCacheOptions{TTL: time.Hour, Registry: reg})
	topos := make([]string, 8)
	for i := range topos {
		topos[i] = fmt.Sprintf("topo%d", i)
		c.Store(topos[i], 1, time.Minute, &core.TopologyModel{})
	}
	// Bounded iterations rather than a wall-clock stop signal: the
	// interleaving coverage comes from goroutine count, not run time,
	// and a fixed workload cannot flake on a slow or loaded machine.
	const churnIters = 3000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < churnIters; i++ {
				topo := topos[(g+i)%len(topos)]
				switch i % 3 {
				case 0:
					c.Lookup(topo, 1, time.Minute)
				case 1:
					c.Invalidate(topo)
				case 2:
					c.Store(topo, 1, time.Minute, &core.TopologyModel{})
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries < 0 || st.Entries > len(topos) {
		t.Fatalf("Entries = %d out of range [0, %d]", st.Entries, len(topos))
	}
	if st.Hits+st.Misses+st.Stale == 0 {
		t.Fatal("no lookups recorded during churn")
	}
}

func TestCalCacheStoreNilModelIgnored(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	c.Store("wc", 1, time.Minute, nil)
	if c.Len() != 0 {
		t.Fatal("nil model was cached")
	}
}

// BenchmarkCalCacheHit asserts the warm lookup path is 0 allocs/op —
// the property that makes cache-served predicts cheap.
// TestCalCacheLoad: a miss runs calibrate and stores its model, a hit
// does not run it, and one Load is one counted lookup.
func TestCalCacheLoad(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	m, runs := testModel(t), 0
	calibrate := func() (*core.TopologyModel, error) { runs++; return m, nil }
	for i, want := range []CalSource{CalMiss, CalHit, CalHit} {
		got, src, err := c.Load("wc", 1, time.Minute, calibrate)
		if err != nil || got != m || src != want {
			t.Fatalf("Load #%d = %v, %q, %v; want the model, %q", i, got, src, err, want)
		}
	}
	if st := c.Stats(); runs != 1 || st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("runs = %d, stats = %+v; want 1 run, 1 miss, 2 hits, 1 entry", runs, st)
	}
	// A superseded plan version is a stale lookup and a fresh run.
	if _, src, _ := c.Load("wc", 2, time.Minute, calibrate); src != CalMiss || runs != 2 || c.Stats().Stale != 1 {
		t.Errorf("Load of a newer plan version: source %q, %d runs, stats %+v; want a second run counted stale", src, runs, c.Stats())
	}
}

// TestCalCacheLoadFlight parks a calibration and drives the flight
// around it: joiners share its outcome without running their own, an
// Invalidate in the middle returns at once, and only a successful
// outcome is cached.
func TestCalCacheLoadFlight(t *testing.T) {
	errCal := errors.New("metrics provider down")
	for _, tc := range []struct {
		name    string
		err     error
		entries int
	}{
		{"a successful calibration is stored despite the invalidate", nil, 1},
		{"a failed calibration reaches its joiners and is not cached", errCal, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCalCache(CalCacheOptions{})
			m := testModel(t)
			running, release := make(chan struct{}), make(chan struct{})
			var runs atomic.Int64
			calibrate := func() (*core.TopologyModel, error) {
				if runs.Add(1) == 1 {
					close(running)
					<-release
				}
				if tc.err != nil {
					return nil, tc.err
				}
				return m, nil
			}
			type outcome struct {
				m   *core.TopologyModel
				src CalSource
				err error
			}
			const joiners = 4
			out := make(chan outcome, 1+joiners) // one send per Load below
			load := func() {
				got, src, err := c.Load("wc", 1, time.Minute, calibrate)
				out <- outcome{got, src, err}
			}
			go load()
			<-running
			for i := 0; i < joiners; i++ {
				go load()
			}
			// Every joiner has counted its miss and is on the flight or
			// a step away from it; the cache stays usable meanwhile.
			for c.Stats().Misses < 1+joiners {
				time.Sleep(time.Millisecond)
			}
			c.Store("sibling", 1, time.Minute, m)
			if c.Invalidate("wc") {
				t.Error("Invalidate found an entry while the first calibration was still running")
			}
			if _, ok := c.Lookup("sibling", 1, time.Minute); !ok {
				t.Error("Lookup of another topology failed during the flight")
			}
			close(release)
			sources := map[CalSource]int{}
			for i := 0; i < 1+joiners; i++ {
				o := <-out
				sources[o.src]++
				if !errors.Is(o.err, tc.err) || (tc.err == nil) != (o.m == m) {
					t.Errorf("Load = %v, %q, %v; want the flight's outcome (err %v)", o.m, o.src, o.err, tc.err)
				}
			}
			// A joiner that reaches the flight as it lands leads a new
			// one: served from the cache after a success (never a second
			// run), left to calibrate again after a failure.
			if n := int(runs.Load()); sources[CalMiss] != n || (tc.err == nil && n != 1) {
				t.Errorf("%d calibrations, sources %v; want one run shared by every Load", n, sources)
			}
			c.Invalidate("sibling")
			if n := c.Len(); n != tc.entries {
				t.Errorf("cache holds %d entries for wc after the flight, want %d", n, tc.entries)
			}
		})
	}
}

// TestCalCacheLoadFlightPerPlanVersion: a load at a newer plan version
// that arrives during an older version's calibration runs its own
// calibration; it does not join the older flight and come back with
// the superseded model.
func TestCalCacheLoadFlightPerPlanVersion(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	v1, v2 := testModel(t), testModel(t)
	running, release := make(chan struct{}), make(chan struct{})
	v1Src := make(chan CalSource, 1)
	go func() {
		_, src, _ := c.Load("wc", 1, time.Minute, func() (*core.TopologyModel, error) {
			close(running)
			<-release
			return v1, nil
		})
		v1Src <- src
	}()
	<-running
	type outcome struct {
		m   *core.TopologyModel
		src CalSource
		err error
	}
	v2Out := make(chan outcome, 1)
	go func() {
		m, src, err := c.Load("wc", 2, time.Minute, func() (*core.TopologyModel, error) { return v2, nil })
		v2Out <- outcome{m, src, err}
	}()
	var o outcome
	select {
	case o = <-v2Out:
		close(release)
	case <-time.After(10 * time.Second):
		// The version-2 load is waiting on the version-1 flight.
		close(release)
		o = <-v2Out
	}
	if o.err != nil || o.m != v2 || o.src != CalMiss {
		t.Errorf("Load at plan version 2 during a version-1 calibration = %p, %q, %v; want its own model %p, %q", o.m, o.src, o.err, v2, CalMiss)
	}
	if src := <-v1Src; src != CalMiss {
		t.Errorf("the version-1 load = %q, want %q", src, CalMiss)
	}
}

// TestCalCacheHitDoesNotAllocate: a hit is what a warm predict pays
// for its model, so Lookup on a hit allocates nothing.
func TestCalCacheHitDoesNotAllocate(t *testing.T) {
	c := NewCalCache(CalCacheOptions{TTL: time.Hour, Registry: instrument.NewRegistry()})
	c.Store("wordcount", 7, 10*time.Minute, testModel(t))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Lookup("wordcount", 7, 10*time.Minute); !ok {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit lookup = %v allocs/op; want 0", allocs)
	}
}
