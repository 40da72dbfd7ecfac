package audit

import (
	"math"
	"testing"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

// TestPrecisionRecall grades the backpressure-risk classifier scoring
// against hand-computed confusion matrices, including the
// zero-positive edge cases where a denominator is empty.
func TestPrecisionRecall(t *testing.T) {
	cases := []struct {
		name         string
		tp, fp, fn   int
		wantP, wantR float64
	}{
		// 3 correct alarms, 1 false alarm, 2 missed: P = 3/4, R = 3/5.
		{name: "mixed", tp: 3, fp: 1, fn: 2, wantP: 0.75, wantR: 0.6},
		// All alarms correct and none missed.
		{name: "perfect", tp: 5, fp: 0, fn: 0, wantP: 1, wantR: 1},
		// Every alarm false, nothing to recall: P = 0/2, R vacuous.
		{name: "only false alarms", tp: 0, fp: 2, fn: 0, wantP: 0, wantR: 1},
		// Never alarmed but backpressure happened: P vacuous, R = 0/3.
		{name: "only misses", tp: 0, fp: 0, fn: 3, wantP: 1, wantR: 0},
		// Zero positives anywhere (all-TN run): both vacuously perfect.
		{name: "no positives", tp: 0, fp: 0, fn: 0, wantP: 1, wantR: 1},
		{name: "half and half", tp: 1, fp: 1, fn: 1, wantP: 0.5, wantR: 0.5},
		// 7 of 10 alarms real, 7 of 21 events caught.
		{name: "asymmetric", tp: 7, fp: 3, fn: 14, wantP: 0.7, wantR: 1.0 / 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, r := PrecisionRecall(tc.tp, tc.fp, tc.fn)
			if math.Abs(p-tc.wantP) > 1e-15 || math.Abs(r-tc.wantR) > 1e-15 {
				t.Fatalf("PrecisionRecall(%d, %d, %d) = %g, %g, want %g, %g",
					tc.tp, tc.fp, tc.fn, p, r, tc.wantP, tc.wantR)
			}
		})
	}
}

func TestComputeErrors(t *testing.T) {
	cases := []struct {
		name        string
		pred        Predicted
		obs         Observed
		wantSigned  float64
		wantAPE     float64
		wantOutcome string
	}{
		{
			name:        "over-prediction low risk no bp",
			pred:        Predicted{SinkTPM: 120, Risk: "low"},
			obs:         Observed{SinkTPM: 100},
			wantSigned:  0.2,
			wantAPE:     0.2,
			wantOutcome: RiskTN,
		},
		{
			name:        "under-prediction high risk with bp",
			pred:        Predicted{SinkTPM: 80, Risk: "high"},
			obs:         Observed{SinkTPM: 100, Backpressure: true},
			wantSigned:  -0.2,
			wantAPE:     0.2,
			wantOutcome: RiskTP,
		},
		{
			name:        "false alarm",
			pred:        Predicted{SinkTPM: 100, Risk: "high"},
			obs:         Observed{SinkTPM: 100},
			wantSigned:  0,
			wantAPE:     0,
			wantOutcome: RiskFP,
		},
		{
			name:        "missed backpressure",
			pred:        Predicted{SinkTPM: 100, Risk: "low"},
			obs:         Observed{SinkTPM: 100, Backpressure: true},
			wantSigned:  0,
			wantAPE:     0,
			wantOutcome: RiskFN,
		},
		{
			// relErr convention: observed zero leaves the error absolute.
			name:        "zero observed",
			pred:        Predicted{SinkTPM: 7, Risk: "low"},
			obs:         Observed{SinkTPM: 0},
			wantSigned:  7,
			wantAPE:     7,
			wantOutcome: RiskTN,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := computeErrors(tc.pred, tc.obs)
			if e.SinkSigned != tc.wantSigned || e.SinkAPE != tc.wantAPE || e.RiskOutcome != tc.wantOutcome {
				t.Fatalf("computeErrors = %+v, want signed %g ape %g outcome %s",
					e, tc.wantSigned, tc.wantAPE, tc.wantOutcome)
			}
		})
	}
}

// TestResolveOnceJoins walks a record through the full join: trailing
// window selection, count→TPM scaling, backpressure classification and
// CPU aggregation.
func TestResolveOnceJoins(t *testing.T) {
	now := audT0
	prov := &stubProvider{
		windows: map[string][]metrics.Window{
			"counter": sinkWindows(audT0, 5, 250_000),
		},
		bp: []tsdb.Point{
			{T: audT0.Add(-4 * time.Minute), V: 20_000},
			{T: audT0.Add(-2 * time.Minute), V: 30_000},
		},
	}
	db := tsdb.New(time.Hour)
	reg := instrument.NewRegistry()
	led := testLedger(t, Options{
		Provider: prov, History: db, Registry: reg,
		Now: func() time.Time { return now },
	})

	rec := predictRecord(275_000) // observed 250k/window → 10% over
	rec.Predicted.Risk = "high"
	rec.Calibration = []core.ComponentCalibration{{Component: "counter", Parallelism: 3, Alpha: 1}}
	id := led.Record(rec)
	if n := led.ResolveOnce(now); n != 1 {
		t.Fatalf("ResolveOnce = %d, want 1", n)
	}
	got, _ := led.Get(id)
	if !got.Resolved || got.Observed == nil || got.Errors == nil {
		t.Fatalf("record not fully resolved: %+v", got)
	}
	// MetricsWindow is 1m, so per-window counts are already per-minute.
	if got.Observed.SinkTPM != 250_000 {
		t.Fatalf("observed sink TPM = %g, want 250000", got.Observed.SinkTPM)
	}
	if got.Observed.Windows != 5 {
		t.Fatalf("observed windows = %d, want 5", got.Observed.Windows)
	}
	// Mean backpressure (20000+30000)/2 = 25000 ≥ 10000 threshold.
	if !got.Observed.Backpressure || got.Observed.BackpressureMsPerWindow != 25_000 {
		t.Fatalf("observed backpressure = %+v", got.Observed)
	}
	if got.Errors.RiskOutcome != RiskTP {
		t.Fatalf("risk outcome = %s, want tp", got.Errors.RiskOutcome)
	}
	if got.Errors.SinkAPE != 0.1 || got.Errors.SinkSigned != 0.1 {
		t.Fatalf("errors = %+v, want ape/signed 0.1", got.Errors)
	}
	// The calibrated component's CPU load joins into observed cores.
	if got.Observed.TotalCPUCores != 2 {
		t.Fatalf("observed CPU cores = %g, want 2", got.Observed.TotalCPUCores)
	}

	// Unified clocks: the APE point lands at the record's creation time.
	pt, err := db.Latest(MetricAPE, tsdb.Labels{"topology": "word-count", "model": "predict"})
	if err != nil {
		t.Fatalf("Latest(%s): %v", MetricAPE, err)
	}
	if !pt.T.Equal(audT0) || pt.V != 0.1 {
		t.Fatalf("APE point = %+v, want 0.1 at %s", pt, audT0)
	}
	if g := reg.Gauge(MetricMAPE, instrument.Labels{"topology": "word-count", "model": "predict"}); g.Value() != 0.1 {
		t.Fatalf("%s gauge = %g, want 0.1", MetricMAPE, g.Value())
	}
	c := reg.Counter(MetricResolved, instrument.Labels{"topology": "word-count", "model": "predict"})
	if c.Value() != 1 {
		t.Fatalf("%s = %g, want 1", MetricResolved, c.Value())
	}
}

// TestResolveResolvedRingAllocatesNothing: a pass copies out only the
// pending records, so a pass over a full ring with none pending
// allocates nothing.
func TestResolveResolvedRingAllocatesNothing(t *testing.T) {
	prov := &stubProvider{windows: map[string][]metrics.Window{"counter": sinkWindows(audT0, 5, 250_000)}}
	led := testLedger(t, Options{Provider: prov, Now: func() time.Time { return audT0 }})
	rec := predictRecord(275_000)
	rec.Calibration = []core.ComponentCalibration{{Component: "counter", Parallelism: 3, Alpha: 1}}
	for i := 0; i < capacity; i++ {
		led.Record(rec)
	}
	if n := led.ResolveOnce(audT0); n != capacity {
		t.Fatalf("ResolveOnce = %d, want the full ring %d", n, capacity)
	}
	if allocs := testing.AllocsPerRun(20, func() { led.ResolveOnce(audT0) }); allocs != 0 {
		t.Fatalf("a pass over a resolved ring allocates %.1f/op, want 0", allocs)
	}
}

// TestResolvePendingRetry: a record whose observation window is still
// empty stays pending and resolves on a later cycle once data exists.
func TestResolvePendingRetry(t *testing.T) {
	now := audT0
	prov := &stubProvider{windows: map[string][]metrics.Window{}}
	led := testLedger(t, Options{Provider: prov, Now: func() time.Time { return now }})
	id := led.Record(predictRecord(100))
	if n := led.ResolveOnce(now); n != 0 {
		t.Fatalf("ResolveOnce with no data = %d, want 0", n)
	}
	if rec, _ := led.Get(id); rec.Resolved {
		t.Fatal("record resolved without data")
	}
	prov.windows["counter"] = sinkWindows(audT0, 5, 100)
	if n := led.ResolveOnce(now); n != 1 {
		t.Fatalf("ResolveOnce after data arrived = %d, want 1", n)
	}
}

// TestResolveCounterfactual: what-if runs get actuals for context but
// no grade, and stay out of the rolling accuracy stats.
func TestResolveCounterfactual(t *testing.T) {
	now := audT0
	prov := &stubProvider{windows: map[string][]metrics.Window{
		"counter": sinkWindows(audT0, 5, 100),
	}}
	led := testLedger(t, Options{Provider: prov, Now: func() time.Time { return now }})
	rec := predictRecord(900) // wildly off — must not pollute MAPE
	rec.Counterfactual = true
	id := led.Record(rec)
	if n := led.ResolveOnce(now); n != 1 {
		t.Fatalf("ResolveOnce = %d, want 1", n)
	}
	got, _ := led.Get(id)
	if !got.Resolved || got.Observed == nil {
		t.Fatalf("counterfactual not resolved with actuals: %+v", got)
	}
	if got.Errors != nil {
		t.Fatalf("counterfactual was graded: %+v", got.Errors)
	}
	stats := led.Stats()
	if len(stats) != 1 || stats[0].Audited != 0 || stats[0].MAPE != nil {
		t.Fatalf("counterfactual leaked into stats: %+v", stats)
	}
}

// TestResolveRollingWindowTrim: the rolling MAPE averages only the
// last rollingWindow audited records.
func TestResolveRollingWindowTrim(t *testing.T) {
	const n = rollingWindow + 2
	now := audT0
	prov := &stubProvider{windows: map[string][]metrics.Window{
		"counter": sinkWindows(audT0.Add(n*time.Minute), n+10, 100),
	}}
	led := testLedger(t, Options{Provider: prov, Now: func() time.Time { return now }})
	// APEs 0.1, 0.2, 0.3, … in creation order.
	for i := 1; i <= n; i++ {
		led.Record(predictRecord(100 + 10*float64(i)))
		now = now.Add(time.Minute)
	}
	if got := led.ResolveOnce(now); got != n {
		t.Fatalf("ResolveOnce = %d, want %d", got, n)
	}
	stats := led.Stats()
	if len(stats) != 1 || stats[0].MAPE == nil {
		t.Fatalf("Stats = %+v", stats)
	}
	want := 0.0
	for i := n - rollingWindow + 1; i <= n; i++ {
		want += 0.1 * float64(i) / rollingWindow
	}
	if math.Abs(*stats[0].MAPE-want) > 1e-12 {
		t.Fatalf("rolling MAPE = %g, want %g (last %d only)", *stats[0].MAPE, want, rollingWindow)
	}
	if stats[0].Audited != n || stats[0].Resolved != n {
		t.Fatalf("counts = %+v", stats[0])
	}
	if stats[0].TN != n {
		t.Fatalf("TN = %d, want %d (no backpressure anywhere)", stats[0].TN, n)
	}
}

// TestResolveDivergedSeriesClock: with a frozen record clock and a
// wall series clock, accuracy points land on the series clock so SLO
// windows can see them: the APE point the ledger appends, and the MAPE
// gauge a scrape on the wall clock copies.
func TestResolveDivergedSeriesClock(t *testing.T) {
	recNow := audT0
	wall := audT0.Add(200 * 24 * time.Hour)
	prov := &stubProvider{windows: map[string][]metrics.Window{
		"counter": sinkWindows(audT0, 5, 100),
	}}
	db := tsdb.New(500 * 24 * time.Hour)
	reg := instrument.NewRegistry()
	led := testLedger(t, Options{
		Provider:  prov,
		History:   db,
		Registry:  reg,
		Now:       func() time.Time { return recNow },
		SeriesNow: func() time.Time { return wall },
	})
	led.Record(predictRecord(110))
	if n := led.ResolveOnce(recNow); n != 1 {
		t.Fatalf("ResolveOnce = %d, want 1", n)
	}
	telemetry.NewScraper(reg, db, telemetry.ScrapeOptions{}).ScrapeOnce(wall)
	for _, m := range []string{MetricAPE, MetricMAPE} {
		pt, err := db.Latest(m, nil)
		if err != nil {
			t.Fatalf("Latest(%s): %v", m, err)
		}
		if !pt.T.Equal(wall) {
			t.Fatalf("%s stamped at %s, want series clock %s", m, pt.T, wall)
		}
	}
}
