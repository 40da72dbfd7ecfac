package audit

import (
	"fmt"
	"math"
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/tsdb"
)

// partialProvider serves a configurable slice of sink windows and lets
// the backpressure series fail — the shapes a provider mid-outage or
// mid-gap hands the resolver.
type partialProvider struct {
	origin  time.Time
	windows map[string][]metrics.Window // by component
	bpErr   error
}

func (p *partialProvider) inRange(ws []metrics.Window, start, end time.Time) []metrics.Window {
	var out []metrics.Window
	for _, w := range ws {
		if !w.T.Before(start) && w.T.Before(end) {
			out = append(out, w)
		}
	}
	return out
}

func (p *partialProvider) ComponentWindows(_, comp string, start, end time.Time) ([]metrics.Window, error) {
	ws := p.inRange(p.windows[comp], start, end)
	if len(ws) == 0 {
		return nil, fmt.Errorf("%w: no windows", metrics.ErrNoData)
	}
	return ws, nil
}
func (p *partialProvider) InstanceWindows(_, _ string, _ int, _, _ time.Time) ([]metrics.Window, error) {
	return nil, metrics.ErrNoData
}
func (p *partialProvider) SourceRate(_ string, _ []string, _, _ time.Time) ([]tsdb.Point, error) {
	return nil, metrics.ErrNoData
}
func (p *partialProvider) TopologyBackpressureMs(_ string, _, _ time.Time) ([]tsdb.Point, error) {
	if p.bpErr != nil {
		return nil, p.bpErr
	}
	return nil, metrics.ErrNoData
}
func (p *partialProvider) StreamEmitTotals(_, _ string, _, _ time.Time) (map[string]float64, error) {
	return nil, metrics.ErrNoData
}

// assertNoNaNSeries scans every caladrius_model_* point in the store:
// partial actuals must never let a NaN or Inf reach the SLO's input.
func assertNoNaNSeries(t *testing.T, db *tsdb.DB, origin time.Time) {
	t.Helper()
	for _, metric := range []string{MetricMAPE, MetricSignedError, MetricAPE, MetricPrecision, MetricRecall} {
		series, err := db.Query(metric, nil, origin.Add(-24*time.Hour), origin.Add(24*time.Hour))
		if err != nil {
			continue // series never written is fine
		}
		for _, s := range series {
			for _, p := range s.Points {
				if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
					t.Errorf("%s%v has non-finite point %v at %s", metric, s.Labels, p.V, p.T)
				}
			}
		}
	}
}

// TestResolvePartialActuals drives the resolver through the degraded
// shapes a faulty provider produces: an observe window only partially
// covered by rollups, a backpressure series that is entirely missing,
// and an observed throughput of zero. All must resolve to finite error
// metrics; none may plant a NaN in the accuracy series.
func TestResolvePartialActuals(t *testing.T) {
	origin := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	now := origin
	// Only 2 of the 5 observe-window minutes have rollups (the gap ate
	// the rest), and their Execute is zero — the sink was fully stalled.
	prov := &partialProvider{origin: origin, windows: map[string][]metrics.Window{
		"counter": {
			{T: origin.Add(-2 * time.Minute), Execute: 0},
			{T: origin.Add(-1 * time.Minute), Execute: 0},
		},
	}}
	db := tsdb.New(0)
	led, err := NewLedger(Options{
		Provider:      prov,
		History:       db,
		Registry:      instrument.NewRegistry(),
		Now:           func() time.Time { return now },
		SeriesNow:     func() time.Time { return now },
		MetricsWindow: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	led.Record(Record{
		Topology:  "word-count",
		Model:     "predict",
		Predicted: Predicted{SinkTPM: 1.5e6, Sink: "counter", Risk: "low"},
	})

	if n := led.ResolveOnce(now); n != 1 {
		t.Fatalf("ResolveOnce = %d, want 1 (partial windows are still actuals)", n)
	}
	recs := led.List(Filter{})
	if len(recs) != 1 || !recs[0].Resolved {
		t.Fatalf("record not resolved: %+v", recs)
	}
	rec := recs[0]
	if rec.Observed == nil || rec.Observed.Windows != 2 {
		t.Fatalf("Observed = %+v, want 2 windows", rec.Observed)
	}
	if rec.Observed.SinkTPM != 0 {
		t.Errorf("observed sink TPM = %g, want 0", rec.Observed.SinkTPM)
	}
	// Zero observed throughput uses the absolute-error convention, not
	// a division by zero.
	if rec.Errors == nil || math.IsNaN(rec.Errors.SinkAPE) || rec.Errors.SinkAPE != 1.5e6 {
		t.Fatalf("Errors = %+v, want finite absolute APE 1.5e6", rec.Errors)
	}
	stats := led.Stats()
	if len(stats) != 1 || stats[0].MAPE == nil || math.IsNaN(*stats[0].MAPE) {
		t.Fatalf("Stats = %+v, want one finite MAPE", stats)
	}
	assertNoNaNSeries(t, db, origin)
}

// TestResolveEmptyWindowStaysPending pins the retry path: a record
// whose observe window has no sink rollups at all must stay pending —
// resolving it against nothing would fabricate a 100% error — and then
// resolve cleanly once data lands.
func TestResolveEmptyWindowStaysPending(t *testing.T) {
	origin := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	now := origin
	prov := &partialProvider{origin: origin, windows: map[string][]metrics.Window{}}
	db := tsdb.New(0)
	led, err := NewLedger(Options{
		Provider:      prov,
		History:       db,
		Registry:      instrument.NewRegistry(),
		Now:           func() time.Time { return now },
		SeriesNow:     func() time.Time { return now },
		MetricsWindow: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	led.Record(Record{
		Topology:  "word-count",
		Model:     "predict",
		Predicted: Predicted{SinkTPM: 1e6, Sink: "counter", Risk: "low"},
	})

	if n := led.ResolveOnce(now); n != 0 {
		t.Fatalf("ResolveOnce over an empty window = %d, want 0", n)
	}
	if recs := led.List(Filter{}); recs[0].Resolved {
		t.Fatal("record resolved against an empty observe window")
	}
	assertNoNaNSeries(t, db, origin)

	// The outage ends: the provider backfills the window, and the next
	// cycle resolves the same record with finite errors.
	prov.windows["counter"] = []metrics.Window{
		{T: origin.Add(-3 * time.Minute), Execute: 1e6},
		{T: origin.Add(-2 * time.Minute), Execute: 1e6},
	}
	if n := led.ResolveOnce(now); n != 1 {
		t.Fatalf("ResolveOnce after backfill = %d, want 1", n)
	}
	rec := led.List(Filter{})[0]
	if !rec.Resolved || rec.Errors == nil {
		t.Fatalf("record after backfill = %+v", rec)
	}
	if math.IsNaN(rec.Errors.SinkAPE) || math.IsInf(rec.Errors.SinkAPE, 0) {
		t.Errorf("SinkAPE = %g, want finite", rec.Errors.SinkAPE)
	}
	assertNoNaNSeries(t, db, origin)
}
