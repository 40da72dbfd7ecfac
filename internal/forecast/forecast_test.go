package forecast

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"caladrius/internal/linalg"
	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

var t0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

func toPoints(tps []workload.TrafficPoint) []tsdb.Point {
	out := make([]tsdb.Point, len(tps))
	for i, p := range tps {
		out[i] = tsdb.Point{T: p.T, V: p.V}
	}
	return out
}

// mape computes mean absolute percentage error of predictions against
// the spec's deterministic ground truth.
func mape(spec workload.TrafficSpec, start time.Time, preds []Prediction) float64 {
	var sum float64
	for _, p := range preds {
		truth := spec.ValueAt(start, p.T)
		sum += math.Abs(p.Mean-truth) / truth
	}
	return sum / float64(len(preds))
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := map[string]bool{"prophet": false, "summary": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("model %q not registered (got %v)", n, names)
		}
	}
	if _, err := New("bogus", nil); err == nil {
		t.Error("unknown model accepted")
	}
	m, err := New("summary", nil)
	if err != nil || m.Name() != "summary" {
		t.Errorf("New(summary) = %v, %v", m, err)
	}
}

func TestSummaryModel(t *testing.T) {
	m, err := NewSummary(map[string]any{"stat": "median"})
	if err != nil {
		t.Fatal(err)
	}
	var pts []tsdb.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, tsdb.Point{T: t0.Add(time.Duration(i) * time.Minute), V: float64(i)})
	}
	if err := m.Fit(pts); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(pts[99].T, time.Minute, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 5 {
		t.Fatalf("preds = %d", len(preds))
	}
	for _, p := range preds {
		if p.Mean != 49.5 { // median of 0..99
			t.Errorf("median forecast = %g", p.Mean)
		}
		if !(p.Lower < p.Mean && p.Mean < p.Upper) {
			t.Errorf("interval [%g, %g] does not bracket %g", p.Lower, p.Upper, p.Mean)
		}
	}
	stats, err := m.(*Summary).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 100 || stats.Min != 0 || stats.Max != 99 || stats.Mean != 49.5 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestSummaryStatsReadOneSort: the statistics Fit reads off one sorted
// copy are the bits of each one computed on its own from the
// time-ordered values.
func TestSummaryStatsReadOneSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var pts []tsdb.Point
	var vals []float64
	for i := 0; i < 997; i++ {
		v := 1e6 * math.Exp(r.NormFloat64())
		pts = append(pts, tsdb.Point{T: t0.Add(time.Duration(i) * time.Minute), V: v})
		vals = append(vals, v)
	}
	m, _ := NewSummary(nil)
	if err := m.Fit(pts); err != nil {
		t.Fatal(err)
	}
	got, err := m.(*Summary).Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := SummaryStats{
		Count:  len(vals),
		Mean:   linalg.Mean(vals),
		Median: linalg.Quantile(vals, 0.5),
		Min:    linalg.Quantile(vals, 0),
		Max:    linalg.Quantile(vals, 1),
		Stddev: linalg.Stddev(vals),
		Q10:    linalg.Quantile(vals, 0.10),
		Q90:    linalg.Quantile(vals, 0.90),
		Q95:    linalg.Quantile(vals, 0.95),
	}
	if got != want {
		t.Errorf("stats = %+v\nwant    %+v", got, want)
	}
}

func TestSummaryValidation(t *testing.T) {
	if _, err := NewSummary(map[string]any{"stat": "mode"}); err == nil {
		t.Error("bad stat accepted")
	}
	if _, err := NewSummary(map[string]any{"stat": 7}); err == nil {
		t.Error("non-string stat accepted")
	}
	m, _ := NewSummary(nil)
	if err := m.Fit(nil); !errors.Is(err, ErrInsufficentData) {
		t.Errorf("empty fit: %v", err)
	}
	if _, err := m.Predict([]time.Time{t0}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("predict before fit: %v", err)
	}
}

func TestProphetRecoverDailySeasonality(t *testing.T) {
	spec := workload.TrafficSpec{Base: 1e6, DailyAmplitude: 0.4, NoiseStd: 0.02, Seed: 3}
	history := spec.Generate(t0, 7*24*60, time.Minute) // one week of minutes
	m, err := NewProphet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(toPoints(history)); err != nil {
		t.Fatal(err)
	}
	// Forecast the next 24 hours.
	preds, err := m.Predict(Horizon(history[len(history)-1].T, time.Minute, 24*60))
	if err != nil {
		t.Fatal(err)
	}
	if got := mape(spec, t0, preds); got > 0.05 {
		t.Errorf("daily-seasonal MAPE = %.3f, want < 0.05", got)
	}
	// The forecast must actually swing with the season, not flatten.
	min, max := math.Inf(1), math.Inf(-1)
	for _, p := range preds {
		min = math.Min(min, p.Mean)
		max = math.Max(max, p.Mean)
	}
	if (max-min)/1e6 < 0.5 {
		t.Errorf("forecast swing = %.3g, want ≳ 0.8 of amplitude", (max-min)/1e6)
	}
}

func TestProphetTrendAndChangepoint(t *testing.T) {
	// Trend with a level shift one third in; robust piecewise trend
	// should track the post-shift regime.
	spec := workload.TrafficSpec{Base: 1e6, TrendPerDay: 2e4, LevelShiftAt: 4 * 24 * 60, LevelShiftFactor: 1.5, NoiseStd: 0.01, Seed: 5}
	history := spec.Generate(t0, 12*24*60, time.Minute)
	m, err := NewProphet(map[string]any{"changepoints": 25})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(toPoints(history)); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(history[len(history)-1].T, time.Minute, 12*60))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range preds {
		truth := spec.ValueAt(t0, p.T) * spec.LevelShiftFactor
		sum += math.Abs(p.Mean-truth) / truth
	}
	if got := sum / float64(len(preds)); got > 0.08 {
		t.Errorf("post-shift MAPE = %.3f, want < 0.08", got)
	}
}

func TestProphetRobustToOutliersAndGaps(t *testing.T) {
	spec := workload.TrafficSpec{
		Base: 1e6, DailyAmplitude: 0.3, NoiseStd: 0.02,
		OutlierProb: 0.01, OutlierScale: 20, MissingProb: 0.1, Seed: 7,
	}
	history := spec.Generate(t0, 7*24*60, time.Minute)
	m, err := NewProphet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(toPoints(history)); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(t0.Add(7*24*time.Hour), time.Minute, 12*60))
	if err != nil {
		t.Fatal(err)
	}
	if got := mape(spec, t0, preds); got > 0.06 {
		t.Errorf("robust MAPE = %.3f, want < 0.06", got)
	}
}

func TestProphetWeeklySeasonality(t *testing.T) {
	spec := workload.TrafficSpec{Base: 1e6, WeeklyAmplitude: 0.5, NoiseStd: 0.01, Seed: 11}
	history := spec.Generate(t0, 4*7*24*4, 15*time.Minute) // 4 weeks of 15-min samples
	m, err := NewProphet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(toPoints(history)); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(history[len(history)-1].T, time.Hour, 7*24))
	if err != nil {
		t.Fatal(err)
	}
	if got := mape(spec, t0, preds); got > 0.05 {
		t.Errorf("weekly MAPE = %.3f, want < 0.05", got)
	}
}

func TestProphetBeatsSummaryOnSeasonalTraffic(t *testing.T) {
	// The paper's motivation for Prophet: summary statistics cannot
	// follow strong seasonality.
	spec := workload.TrafficSpec{Base: 1e6, DailyAmplitude: 0.5, NoiseStd: 0.02, Seed: 13}
	history := toPoints(spec.Generate(t0, 5*24*60, time.Minute))
	horizon := Horizon(history[len(history)-1].T, time.Minute, 24*60)

	prophet, _ := NewProphet(nil)
	if err := prophet.Fit(history); err != nil {
		t.Fatal(err)
	}
	pPreds, err := prophet.Predict(horizon)
	if err != nil {
		t.Fatal(err)
	}
	summary, _ := NewSummary(nil)
	if err := summary.Fit(history); err != nil {
		t.Fatal(err)
	}
	sPreds, err := summary.Predict(horizon)
	if err != nil {
		t.Fatal(err)
	}
	pErr, sErr := mape(spec, t0, pPreds), mape(spec, t0, sPreds)
	if pErr >= sErr/3 {
		t.Errorf("prophet MAPE %.3f should be ≪ summary MAPE %.3f", pErr, sErr)
	}
}

func TestProphetIntervalCoverage(t *testing.T) {
	spec := workload.TrafficSpec{Base: 1e6, DailyAmplitude: 0.3, NoiseStd: 0.05, Seed: 17}
	history := spec.Generate(t0, 6*24*60, time.Minute)
	holdout := workload.TrafficSpec{Base: 1e6, DailyAmplitude: 0.3, NoiseStd: 0.05, Seed: 18}
	m, _ := NewProphet(nil)
	if err := m.Fit(toPoints(history)); err != nil {
		t.Fatal(err)
	}
	future := holdout.Generate(t0.Add(6*24*time.Hour), 24*60, time.Minute)
	times := make([]time.Time, len(future))
	for i, p := range future {
		times[i] = p.T
	}
	preds, err := m.Predict(times)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for i, p := range preds {
		if future[i].V >= p.Lower && future[i].V <= p.Upper {
			covered++
		}
	}
	cov := float64(covered) / float64(len(preds))
	if cov < 0.6 || cov > 0.99 {
		t.Errorf("80%% interval coverage = %.2f, want ∈ [0.6, 0.99]", cov)
	}
}

func TestProphetValidation(t *testing.T) {
	cases := []map[string]any{
		{"changepoints": -1},
		{"ridge": -0.5},
		{"interval_level": 1.5},
		{"interval_level": 0.0},
		{"daily_order": "six"},
	}
	for _, opts := range cases {
		if _, err := NewProphet(opts); err == nil {
			t.Errorf("options %v accepted", opts)
		}
	}
	m, _ := NewProphet(nil)
	if err := m.Fit([]tsdb.Point{{T: t0, V: 1}}); !errors.Is(err, ErrInsufficentData) {
		t.Errorf("tiny fit: %v", err)
	}
	if _, err := m.Predict([]time.Time{t0}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("predict before fit: %v", err)
	}
	// All points at the same instant → zero span.
	same := make([]tsdb.Point, 20)
	for i := range same {
		same[i] = tsdb.Point{T: t0, V: float64(i)}
	}
	if err := m.Fit(same); !errors.Is(err, ErrInsufficentData) {
		t.Errorf("zero-span fit: %v", err)
	}
}

func TestProphetNonNegativeForecast(t *testing.T) {
	// Declining trend extrapolates below zero; forecasts clamp at 0.
	var pts []tsdb.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, tsdb.Point{T: t0.Add(time.Duration(i) * time.Hour), V: math.Max(0, 1000-10*float64(i))})
	}
	m, _ := NewProphet(map[string]any{"daily_order": 0, "weekly_order": 0})
	if err := m.Fit(pts); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(pts[len(pts)-1].T, time.Hour, 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p.Mean < 0 || p.Lower < 0 {
			t.Fatalf("negative forecast %+v", p)
		}
	}
}

func TestProphetUnsortedInputHandled(t *testing.T) {
	spec := workload.TrafficSpec{Base: 1e6, DailyAmplitude: 0.3, Seed: 21}
	history := toPoints(spec.Generate(t0, 3*24*60, time.Minute))
	// Shuffle deterministically.
	for i := range history {
		j := (i * 7919) % len(history)
		history[i], history[j] = history[j], history[i]
	}
	m, _ := NewProphet(nil)
	if err := m.Fit(history); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(t0.Add(3*24*time.Hour), time.Hour, 24))
	if err != nil {
		t.Fatal(err)
	}
	if got := mape(spec, t0, preds); got > 0.05 {
		t.Errorf("unsorted-input MAPE = %.3f", got)
	}
}

func TestHorizon(t *testing.T) {
	h := Horizon(t0, time.Minute, 3)
	if len(h) != 3 || !h[0].Equal(t0.Add(time.Minute)) || !h[2].Equal(t0.Add(3*time.Minute)) {
		t.Errorf("horizon = %v", h)
	}
}
