package audit

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/heron"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/tsdb"
)

// countingProvider counts the provider queries the resolver makes, per
// (method, component, window), and can fail or stall chosen ones.
type countingProvider struct {
	metrics.Provider
	mu    sync.Mutex
	calls map[string]int
	// fail, when set, decides each query's error before it is forwarded.
	fail func(component string, end time.Time) error
	// entered, when set, is signalled by the first ComponentWindows call,
	// which then waits for release.
	entered, release chan struct{}
	stalled          atomic.Bool
}

func (p *countingProvider) note(method, component string, start, end time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.calls == nil {
		p.calls = map[string]int{}
	}
	p.calls[fmt.Sprintf("%s %s [%s, %s)", method, component, start.Format(time.RFC3339), end.Format(time.RFC3339))]++
	if p.fail != nil {
		return p.fail(component, end)
	}
	return nil
}

func (p *countingProvider) ComponentWindows(topology, component string, start, end time.Time) ([]metrics.Window, error) {
	if err := p.note("ComponentWindows", component, start, end); err != nil {
		return nil, err
	}
	if p.entered != nil && p.stalled.CompareAndSwap(false, true) {
		p.entered <- struct{}{}
		<-p.release
	}
	return p.Provider.ComponentWindows(topology, component, start, end)
}

func (p *countingProvider) TopologyBackpressureMs(topology string, start, end time.Time) ([]tsdb.Point, error) {
	if err := p.note("TopologyBackpressureMs", "", start, end); err != nil {
		return nil, err
	}
	return p.Provider.TopologyBackpressureMs(topology, start, end)
}

// total returns the number of queries made and the largest count any
// single (method, component, window) reached.
func (p *countingProvider) total() (queries, most int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.calls {
		queries += n
		most = max(most, n)
	}
	return queries, most
}

// wordCountActuals simulates the saturated evaluation topology and
// returns a provider over its metrics and the instant they end at.
func wordCountActuals(t testing.TB, minutes int) (*metrics.TSDBProvider, time.Time) {
	t.Helper()
	d, err := metrics.DeployWordCount(heron.WordCountOptions{SplitterP: 3, CounterP: 4, RatePerMinute: 45e6}, 0, minutes)
	if err != nil {
		t.Fatalf("DeployWordCount: %v", err)
	}
	return d.Provider, d.AsOf
}

var wordCountCalibration = []core.ComponentCalibration{
	{Component: "counter", Parallelism: 4, Alpha: 0.001},
	{Component: "splitter", Parallelism: 3, Alpha: 7.6},
	{Component: "spout", Parallelism: 8, Alpha: 1},
}

// fleetRecord is the i-th of a varied stream of records: predictions
// differ, every fifth is a counterfactual, models alternate.
func fleetRecord(i int, at time.Time) Record {
	rec := predictRecord(2.0e8 + 1e5*float64(i%97))
	rec.CreatedAt = at
	rec.Calibration = wordCountCalibration
	rec.Counterfactual = i%5 == 0
	if i%3 == 0 {
		rec.Model = "plan"
		rec.Predicted.Risk = "high"
	}
	return rec
}

// resolvedAlone resolves rec in a ledger of its own — the unshared
// join every record of a shared pass must reproduce.
func resolvedAlone(t *testing.T, prov metrics.Provider, rec Record, now time.Time) Record {
	t.Helper()
	led := testLedger(t, Options{Provider: prov, Now: func() time.Time { return now }})
	id := led.Record(rec)
	if n := led.ResolveOnce(now); n != 1 {
		t.Fatalf("one-record ledger resolved %d", n)
	}
	got, _ := led.Get(id)
	return got
}

// TestResolveFullRingSharesWindows: a full ring recorded at one instant
// (the daemon's frozen model clock) costs one provider query per
// distinct window, and sharing changes no record's join.
func TestResolveFullRingSharesWindows(t *testing.T) {
	prov, now := wordCountActuals(t, 12)
	counting := &countingProvider{Provider: prov}
	led := testLedger(t, Options{Provider: counting, Now: func() time.Time { return now }})
	const ring = 4096
	for i := 0; i < ring; i++ {
		led.Record(fleetRecord(i, now))
	}
	if n := led.ResolveOnce(now); n != ring {
		t.Fatalf("ResolveOnce = %d, want %d", n, ring)
	}
	// The sink is one of the calibrated components, so its window serves
	// both joins: one query per calibrated component plus backpressure.
	queries, most := counting.total()
	if want := len(wordCountCalibration) + 1; queries != want || most != 1 {
		t.Fatalf("provider queries = %d (most per window %d), want %d distinct windows asked once each: %v", queries, most, want, counting.calls)
	}
	for _, i := range []int{0, 1, 2, 3, 5, 96, 97, 2048, ring - 1} {
		got, _ := led.Get(int64(i + 1))
		want := resolvedAlone(t, prov, fleetRecord(i, now), now)
		if !reflect.DeepEqual(got.Observed, want.Observed) || !reflect.DeepEqual(got.Errors, want.Errors) {
			t.Fatalf("record %d: shared pass joined %+v / %+v, alone %+v / %+v", i, got.Observed, got.Errors, want.Observed, want.Errors)
		}
		if got.Observed.SinkTPM == 0 || got.Observed.TotalCPUCores == 0 {
			t.Fatalf("record %d joined empty actuals: %+v", i, got.Observed)
		}
	}
}

// TestResolveDistinctInstantsKeepOwnWindows: records one rollup window
// apart join different actuals — keys share only when identical.
func TestResolveDistinctInstantsKeepOwnWindows(t *testing.T) {
	// An unsaturated ramp: every minute's throughput differs.
	d, err := metrics.DeployWordCount(heron.WordCountOptions{
		SplitterP: 3, CounterP: 4,
		Schedule: func(elapsed time.Duration) float64 { return (10e6 + 10e6*elapsed.Minutes()/12) / 60 },
	}, 0, 12)
	if err != nil {
		t.Fatalf("DeployWordCount: %v", err)
	}
	now := d.AsOf
	counting := &countingProvider{Provider: d.Provider}
	led := testLedger(t, Options{Provider: counting, Now: func() time.Time { return now }})
	const n = 5
	for i := 0; i < n; i++ {
		led.Record(fleetRecord(i, now.Add(time.Duration(i-n+1)*time.Minute)))
	}
	if got := led.ResolveOnce(now); got != n {
		t.Fatalf("ResolveOnce = %d, want %d", got, n)
	}
	if queries, most := counting.total(); queries != n*(len(wordCountCalibration)+1) || most != 1 {
		t.Fatalf("provider queries = %d (most per window %d), want %d", queries, most, n*(len(wordCountCalibration)+1))
	}
	seen := map[float64]bool{}
	for i := 0; i < n; i++ {
		got, _ := led.Get(int64(i + 1))
		want := resolvedAlone(t, d.Provider, fleetRecord(i, got.CreatedAt), now)
		if !reflect.DeepEqual(got.Observed, want.Observed) || !reflect.DeepEqual(got.Errors, want.Errors) {
			t.Fatalf("record %d: pass joined %+v, alone %+v", i, got.Observed, want.Observed)
		}
		if seen[got.Observed.SinkTPM] {
			t.Fatalf("record %d shares observed sink throughput %g with an earlier window", i, got.Observed.SinkTPM)
		}
		seen[got.Observed.SinkTPM] = true
	}
}

// TestResolveUnavailableWindowSharedAndRetried: a window the provider
// cannot serve is asked once, every record on it stays pending, and the
// next pass — provider back — resolves them all.
func TestResolveUnavailableWindowSharedAndRetried(t *testing.T) {
	for _, failing := range []string{"counter", ""} { // the sink's windows; the backpressure series
		prov, now := wordCountActuals(t, 12)
		down := true
		counting := &countingProvider{Provider: prov}
		counting.fail = func(component string, _ time.Time) error {
			if down && component == failing {
				return fmt.Errorf("%w: injected outage", metrics.ErrUnavailable)
			}
			return nil
		}
		led := testLedger(t, Options{Provider: counting, Now: func() time.Time { return now }})
		const n = 64
		for i := 0; i < n; i++ {
			led.Record(fleetRecord(i, now))
		}
		if got := led.ResolveOnce(now); got != 0 {
			t.Fatalf("failing %q: ResolveOnce during the outage = %d, want 0", failing, got)
		}
		if _, most := counting.total(); most != 1 {
			t.Fatalf("failing %q: a window was asked %d times in one pass: %v", failing, most, counting.calls)
		}
		pending := false
		if got := led.List(Filter{Resolved: &pending, Limit: n}); len(got) != n {
			t.Fatalf("failing %q: %d records pending after the outage pass, want %d", failing, len(got), n)
		}
		down = false
		if got := led.ResolveOnce(now); got != n {
			t.Fatalf("failing %q: ResolveOnce after recovery = %d, want %d", failing, got, n)
		}
	}
}

// TestResolvedCounterOverlappingPasses interleaves two passes over the
// same pending set: the first stalls inside its provider query while
// the second resolves everything. Each record must be counted once.
func TestResolvedCounterOverlappingPasses(t *testing.T) {
	prov, now := wordCountActuals(t, 12)
	stalling := &countingProvider{Provider: prov, entered: make(chan struct{}), release: make(chan struct{})}
	reg := instrument.NewRegistry()
	led := testLedger(t, Options{Provider: stalling, Registry: reg, History: tsdb.New(0), Now: func() time.Time { return now }})
	const n = 32
	for i := 0; i < n; i++ {
		rec := fleetRecord(i, now)
		rec.Model = "predict"
		led.Record(rec)
	}
	first := make(chan int)
	go func() { first <- led.ResolveOnce(now) }()
	<-stalling.entered // the first pass holds its copy of the pending set

	if got := led.ResolveOnce(now); got != n {
		t.Fatalf("second pass resolved %d, want %d", got, n)
	}
	stalling.release <- struct{}{}
	if got := <-first; got != 0 {
		t.Fatalf("first pass applied %d records the second had already resolved", got)
	}

	stats := led.Stats()
	if len(stats) != 1 || stats[0].Resolved != n {
		t.Fatalf("Stats = %+v, want %d resolved", stats, n)
	}
	c := reg.Counter(MetricResolved, instrument.Labels{"topology": "word-count", "model": "predict"})
	if int(c.Value()) != stats[0].Resolved {
		t.Fatalf("%s = %g, Stats().Resolved = %d", MetricResolved, c.Value(), stats[0].Resolved)
	}
}

// TestLedgerConcurrentUse runs every entry point at once; under -race
// it covers the interned handles and the shared instruments.
func TestLedgerConcurrentUse(t *testing.T) {
	prov, now := wordCountActuals(t, 12)
	led := testLedger(t, Options{Provider: prov, Registry: instrument.NewRegistry(), History: tsdb.New(0), Now: func() time.Time { return now }})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(4)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				led.Record(fleetRecord(i+g, now))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				led.ResolveOnce(now)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				led.List(Filter{Limit: 50})
				led.Stats()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				led.NoteCalibration([]string{"word-count", "other"}[i%2], now)
				led.Collector()()
			}
		}()
	}
	wg.Wait()
	led.ResolveOnce(now)
	pending := false
	if left := led.List(Filter{Resolved: &pending}); len(left) != 0 {
		t.Fatalf("%d records still pending after a quiescent pass", len(left))
	}
	resolved := 0
	for _, s := range led.Stats() {
		resolved += s.Resolved
	}
	if resolved != 3*200 {
		t.Fatalf("resolved %d records in total, want every one of the %d recorded exactly once", resolved, 3*200)
	}
}
