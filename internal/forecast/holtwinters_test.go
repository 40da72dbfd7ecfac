package forecast

import (
	"errors"
	"math"
	"testing"
	"time"

	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

func TestHoltWintersRegistered(t *testing.T) {
	m, err := New("holtwinters", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "holtwinters" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestHoltWintersDailySeasonality(t *testing.T) {
	spec := workload.TrafficSpec{Base: 1e6, DailyAmplitude: 0.4, NoiseStd: 0.02, Seed: 31}
	history := toPoints(spec.Generate(t0, 5*24*60, time.Minute))
	m, err := NewHoltWinters(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(history); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(history[len(history)-1].T, time.Minute, 24*60))
	if err != nil {
		t.Fatal(err)
	}
	if got := mape(spec, t0, preds); got > 0.06 {
		t.Errorf("daily-seasonal MAPE = %.3f, want < 0.06", got)
	}
	// The forecast must swing with the season.
	min, max := math.Inf(1), math.Inf(-1)
	for _, p := range preds {
		min = math.Min(min, p.Mean)
		max = math.Max(max, p.Mean)
	}
	if (max-min)/1e6 < 0.5 {
		t.Errorf("forecast swing = %.3g, want ≳0.8 of amplitude", (max-min)/1e6)
	}
}

func TestHoltWintersTrend(t *testing.T) {
	spec := workload.TrafficSpec{Base: 1e6, TrendPerDay: 5e4, DailyAmplitude: 0.2, Seed: 37}
	history := toPoints(spec.Generate(t0, 6*24*60, time.Minute))
	m, _ := NewHoltWinters(nil)
	if err := m.Fit(history); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(history[len(history)-1].T, time.Hour, 24))
	if err != nil {
		t.Fatal(err)
	}
	if got := mape(spec, t0, preds); got > 0.06 {
		t.Errorf("trend MAPE = %.3f", got)
	}
}

func TestHoltWintersHandlesGaps(t *testing.T) {
	spec := workload.TrafficSpec{Base: 1e6, DailyAmplitude: 0.3, MissingProb: 0.2, NoiseStd: 0.02, Seed: 41}
	history := toPoints(spec.Generate(t0, 4*24*60, time.Minute))
	m, _ := NewHoltWinters(nil)
	if err := m.Fit(history); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(t0.Add(4*24*time.Hour), 15*time.Minute, 96))
	if err != nil {
		t.Fatal(err)
	}
	if got := mape(spec, t0, preds); got > 0.07 {
		t.Errorf("gap MAPE = %.3f", got)
	}
}

func TestHoltWintersValidation(t *testing.T) {
	bad := []map[string]any{
		{"alpha": 0.0},
		{"alpha": 1.5},
		{"beta": -0.1},
		{"gamma": 2.0},
		{"period_minutes": 0},
		{"period_minutes": 10, "step_minutes": 9},
		{"interval_level": 1.0},
		{"alpha": "high"},
	}
	for _, opts := range bad {
		if _, err := NewHoltWinters(opts); err == nil {
			t.Errorf("options %v accepted", opts)
		}
	}
	m, _ := NewHoltWinters(nil)
	if _, err := m.Predict([]time.Time{t0}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("predict before fit: %v", err)
	}
	if err := m.Fit([]tsdb.Point{{T: t0, V: 1}, {T: t0.Add(time.Minute), V: 2}}); !errors.Is(err, ErrInsufficentData) {
		t.Errorf("tiny fit: %v", err)
	}
	// Less than two seasonal periods.
	short := toPoints(workload.TrafficSpec{Base: 1e6, Seed: 1}.Generate(t0, 30*60, time.Minute))
	if err := m.Fit(short); !errors.Is(err, ErrInsufficentData) {
		t.Errorf("short-span fit: %v", err)
	}
}

func TestHoltWintersNonNegative(t *testing.T) {
	// Steeply declining series; forecasts clamp at zero.
	var pts []tsdb.Point
	for i := 0; i < 3*24*60; i++ {
		v := 1e5 - 40*float64(i)
		if v < 0 {
			v = 0
		}
		pts = append(pts, tsdb.Point{T: t0.Add(time.Duration(i) * time.Minute), V: v})
	}
	m, _ := NewHoltWinters(nil)
	if err := m.Fit(pts); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(pts[len(pts)-1].T, time.Hour, 48))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p.Mean < 0 || p.Lower < 0 {
			t.Fatalf("negative forecast %+v", p)
		}
	}
}

func TestHoltWintersCustomPeriod(t *testing.T) {
	// Hourly seasonality with a 1-hour period model.
	var pts []tsdb.Point
	for i := 0; i < 8*60; i++ {
		tm := t0.Add(time.Duration(i) * time.Minute)
		v := 1000 + 300*math.Sin(2*math.Pi*float64(i%60)/60)
		pts = append(pts, tsdb.Point{T: tm, V: v})
	}
	m, err := NewHoltWinters(map[string]any{"period_minutes": 60, "step_minutes": 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(pts); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(Horizon(pts[len(pts)-1].T, 5*time.Minute, 12))
	if err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	for _, p := range preds {
		i := int(p.T.Sub(t0) / time.Minute)
		truth := 1000 + 300*math.Sin(2*math.Pi*float64(i%60)/60)
		sumErr += math.Abs(p.Mean-truth) / truth
	}
	if got := sumErr / float64(len(preds)); got > 0.1 {
		t.Errorf("hourly MAPE = %.3f", got)
	}
}

// TestHoltWintersPredictReadsFittedSlot: Fit files a point under the
// step bucket that holds it, so Predict must read a time's season from
// that bucket too, not from the nearest bucket boundary. A noiseless
// series alternates a high and a low 5-minute bucket (period 10 min);
// 3 minutes into a low bucket the forecast is the low level.
func TestHoltWintersPredictReadsFittedSlot(t *testing.T) {
	level := func(tm time.Time) float64 {
		if int(tm.Sub(t0)/(5*time.Minute))%2 == 0 {
			return 200
		}
		return 100
	}
	var pts []tsdb.Point
	for i := 0; i < 120; i++ {
		tm := t0.Add(time.Duration(i) * time.Minute)
		pts = append(pts, tsdb.Point{T: tm, V: level(tm)})
	}
	m, err := NewHoltWinters(map[string]any{"period_minutes": 10, "step_minutes": 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(pts); err != nil {
		t.Fatal(err)
	}
	at := t0.Add(120*time.Minute + 5*time.Minute + 3*time.Minute)
	preds, err := m.Predict([]time.Time{at})
	if err != nil {
		t.Fatal(err)
	}
	if got := preds[0].Mean; math.Abs(got-level(at)) > 10 {
		t.Errorf("forecast 3 min into a low bucket = %.1f, want ≈ %.0f", got, level(at))
	}
}
