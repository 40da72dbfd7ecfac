package audit

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/tsdb"
)

var audT0 = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

// stubProvider serves canned per-component windows and a topology
// backpressure series, filtered to the queried range.
type stubProvider struct {
	windows map[string][]metrics.Window
	bp      []tsdb.Point
}

func (p *stubProvider) ComponentWindows(_, component string, start, end time.Time) ([]metrics.Window, error) {
	var out []metrics.Window
	for _, w := range p.windows[component] {
		if !w.T.Before(start) && w.T.Before(end) {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return nil, metrics.ErrNoData
	}
	return out, nil
}

func (p *stubProvider) InstanceWindows(string, string, int, time.Time, time.Time) ([]metrics.Window, error) {
	return nil, metrics.ErrNoData
}

func (p *stubProvider) SourceRate(string, []string, time.Time, time.Time) ([]tsdb.Point, error) {
	return nil, metrics.ErrNoData
}

func (p *stubProvider) TopologyBackpressureMs(_ string, start, end time.Time) ([]tsdb.Point, error) {
	var out []tsdb.Point
	for _, pt := range p.bp {
		if !pt.T.Before(start) && pt.T.Before(end) {
			out = append(out, pt)
		}
	}
	if len(out) == 0 {
		return nil, metrics.ErrNoData
	}
	return out, nil
}

func (p *stubProvider) StreamEmitTotals(string, string, time.Time, time.Time) (map[string]float64, error) {
	return nil, nil
}

// sinkWindows fills count one-minute windows ending at end with the
// given per-window execute rate.
func sinkWindows(end time.Time, count int, execute float64) []metrics.Window {
	ws := make([]metrics.Window, count)
	for i := range ws {
		ws[i] = metrics.Window{
			T:       end.Add(-time.Duration(count-i) * time.Minute),
			Execute: execute,
			CPULoad: 2,
		}
	}
	return ws
}

func testLedger(t testing.TB, opts Options) *Ledger {
	t.Helper()
	if opts.Provider == nil {
		opts.Provider = &stubProvider{}
	}
	if opts.History == nil {
		opts.History = tsdb.New(0)
	}
	if opts.Registry == nil {
		opts.Registry = instrument.NewRegistry()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.SeriesNow == nil {
		opts.SeriesNow = opts.Now
	}
	if opts.MetricsWindow == 0 {
		opts.MetricsWindow = time.Minute
	}
	led, err := NewLedger(opts)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	return led
}

func predictRecord(sinkTPM float64) Record {
	return Record{
		Topology:      "word-count",
		Model:         "predict",
		SourceRateTPM: 20e6,
		Predicted:     Predicted{SinkTPM: sinkTPM, Risk: "low", Sink: "counter", TotalCPUCores: 2},
	}
}

func TestLedgerRecordGetList(t *testing.T) {
	now := audT0
	led := testLedger(t, Options{Now: func() time.Time { return now }})

	id1 := led.Record(predictRecord(100))
	now = now.Add(time.Minute)
	rec2 := predictRecord(200)
	rec2.Model = "plan"
	rec2.Counterfactual = true
	id2 := led.Record(rec2)
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", id1, id2)
	}

	got, ok := led.Get(id2)
	if !ok || got.Model != "plan" || !got.CreatedAt.Equal(audT0.Add(time.Minute)) {
		t.Fatalf("Get(%d) = %+v, %v", id2, got, ok)
	}
	if _, ok := led.Get(99); ok {
		t.Fatal("Get(99) found a record that was never recorded")
	}

	if all := led.List(Filter{}); len(all) != 2 || all[0].ID != 2 || all[1].ID != 1 {
		t.Fatalf("List newest-first = %+v", all)
	}
	if plans := led.List(Filter{Model: "plan"}); len(plans) != 1 || plans[0].ID != 2 {
		t.Fatalf("List(model=plan) = %+v", plans)
	}
	if lim := led.List(Filter{Limit: 1}); len(lim) != 1 || lim[0].ID != 2 {
		t.Fatalf("List(limit=1) = %+v", lim)
	}
	unresolved := false
	if pending := led.List(Filter{Resolved: &unresolved}); len(pending) != 2 {
		t.Fatalf("List(resolved=false) = %d records, want 2", len(pending))
	}
	if since := led.List(Filter{Since: audT0.Add(30 * time.Second)}); len(since) != 1 || since[0].ID != 2 {
		t.Fatalf("List(since) = %+v", since)
	}
}

// TestLedgerRecordDoesNotAllocate: every prediction request pays
// Record synchronously. Once the first record has interned the
// (topology, model) run counter, its names and its parallelism, Record
// packs it into the preallocated ring in place and allocates nothing:
// not for its cost, which the entry holds by value, nor for a
// parallelism map like one seen before.
func TestLedgerRecordDoesNotAllocate(t *testing.T) {
	led := testLedger(t, Options{Now: func() time.Time { return audT0 }})
	rec := predictRecord(1.9e7)
	rec.CreatedAt = audT0
	rec.Calibration = []core.ComponentCalibration{{Component: "counter", Parallelism: 4, Alpha: 0.001}}
	costed := rec
	costed.Cost = &core.RunCost{WallNanos: 1500, CPUNanos: 1200, AllocBytes: 4096}
	costed.Parallelism = map[string]int{"splitter": 4, "counter": 2}
	for i := 0; i < capacity; i++ { // fill the ring: every measured Record overwrites
		led.Record(rec)
	}
	led.Record(costed)
	for _, tc := range []struct {
		name string
		rec  Record
	}{{"bare", rec}, {"with cost and parallelism", costed}} {
		if allocs := testing.AllocsPerRun(100, func() { led.Record(tc.rec) }); allocs != 0 {
			t.Errorf("Record of a %s record allocates %.1f/op on the ring-overwrite path, want 0", tc.name, allocs)
		}
	}
}

func TestLedgerRingEviction(t *testing.T) {
	now := audT0
	led := testLedger(t, Options{Now: func() time.Time { return now }})
	for i := 0; i < capacity+2; i++ {
		led.Record(predictRecord(float64(i)))
	}
	if led.Len() != capacity {
		t.Fatalf("Len = %d, want capacity %d", led.Len(), capacity)
	}
	if _, ok := led.Get(2); ok {
		t.Fatal("record 2 should have been evicted by the ring")
	}
	if rec, ok := led.Get(3); !ok || rec.Predicted.SinkTPM != 2 {
		t.Fatalf("Get(3) = %+v, %v", rec, ok)
	}
	if rec, ok := led.Get(capacity + 2); !ok || rec.Predicted.SinkTPM != capacity+1 {
		t.Fatalf("Get(%d) = %+v, %v", capacity+2, rec, ok)
	}
}

func TestLedgerRetentionEviction(t *testing.T) {
	now := audT0
	led := testLedger(t, Options{Now: func() time.Time { return now }})
	led.Record(predictRecord(1))
	now = now.Add(retention + time.Minute)
	led.Record(predictRecord(2))
	if led.Len() != 1 {
		t.Fatalf("Len = %d after retention horizon passed, want 1", led.Len())
	}
	if _, ok := led.Get(1); ok {
		t.Fatal("record 1 outlived its retention")
	}
}

func TestLedgerSnapshotRoundTrip(t *testing.T) {
	now := audT0
	prov := &stubProvider{windows: map[string][]metrics.Window{
		"counter": sinkWindows(audT0, 5, 100),
	}}
	led := testLedger(t, Options{Provider: prov, Now: func() time.Time { return now }})
	led.Record(predictRecord(110)) // resolves: APE 0.1
	cf := predictRecord(500)
	cf.Counterfactual = true
	led.Record(cf)
	if n := led.ResolveOnce(now); n != 2 {
		t.Fatalf("ResolveOnce = %d, want 2", n)
	}
	led.Record(predictRecord(120)) // left pending
	led.NoteCalibration("word-count", audT0)

	var buf bytes.Buffer
	if err := led.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored := testLedger(t, Options{Provider: prov, Now: func() time.Time { return now }})
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if restored.Len() != 3 {
		t.Fatalf("restored Len = %d, want 3", restored.Len())
	}
	rec, ok := restored.Get(1)
	if !ok || !rec.Resolved || rec.Errors == nil {
		t.Fatalf("restored record 1 = %+v, %v", rec, ok)
	}
	if ape := rec.Errors.SinkAPE; ape != 0.1 {
		t.Fatalf("restored APE = %g, want 0.1", ape)
	}
	// The rolling accuracy state replays from resolved records.
	stats := restored.Stats()
	if len(stats) != 1 || stats[0].Resolved != 2 || stats[0].Audited != 1 {
		t.Fatalf("restored Stats = %+v", stats)
	}
	if stats[0].MAPE == nil || *stats[0].MAPE != 0.1 {
		t.Fatalf("restored MAPE = %v, want 0.1", stats[0].MAPE)
	}
	if stats[0].LastCalibrated == nil || !stats[0].LastCalibrated.Equal(audT0) {
		t.Fatalf("restored LastCalibrated = %v", stats[0].LastCalibrated)
	}
	// Ids keep counting from where the snapshot left off.
	if id := restored.Record(predictRecord(1)); id != 4 {
		t.Fatalf("next id after restore = %d, want 4", id)
	}

	// File round trip via the atomic save path.
	path := filepath.Join(t.TempDir(), "sub", "audit.json")
	if err := led.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	fromFile := testLedger(t, Options{Provider: prov, Now: func() time.Time { return now }})
	if err := fromFile.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if fromFile.Len() != 3 {
		t.Fatalf("LoadFile Len = %d, want 3", fromFile.Len())
	}
}

func TestNewLedgerRefusesMissingDependencies(t *testing.T) {
	db, reg := tsdb.New(0), instrument.NewRegistry()
	for _, tc := range []struct {
		want string
		opts Options
	}{
		{"metrics provider", Options{History: db, Registry: reg}},
		{"history store", Options{Provider: &stubProvider{}, Registry: reg}},
		{"telemetry registry", Options{Provider: &stubProvider{}, History: db}},
		{"clock", Options{Provider: &stubProvider{}, History: db, Registry: reg}},
		{"series clock", Options{Provider: &stubProvider{}, History: db, Registry: reg, Now: time.Now}},
		{"positive metrics window", Options{Provider: &stubProvider{}, History: db, Registry: reg, Now: time.Now, SeriesNow: time.Now, MetricsWindow: -time.Minute}},
	} {
		if _, err := NewLedger(tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewLedger without a %s: err = %v", tc.want, err)
		}
	}
}

func TestLedgerSnapshotRejectsForeignFormat(t *testing.T) {
	led := testLedger(t, Options{})
	if err := led.ReadSnapshot(bytes.NewBufferString(`{"format":"caladrius-tsdb","version":1}` + "\n")); err == nil {
		t.Fatal("ReadSnapshot accepted a tsdb snapshot")
	}
}

func TestLedgerRecordCountersAndRunsMetric(t *testing.T) {
	reg := instrument.NewRegistry()
	now := audT0
	led := testLedger(t, Options{Registry: reg, Now: func() time.Time { return now }})
	led.Record(predictRecord(1))
	led.Record(predictRecord(2))
	c := reg.Counter(MetricRuns, instrument.Labels{"topology": "word-count", "model": "predict"})
	if c.Value() != 2 {
		t.Fatalf("%s = %g, want 2", MetricRuns, c.Value())
	}
}
