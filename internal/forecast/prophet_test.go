package forecast

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

// trafficHistory is days of minutely samples from the traffic
// experiment's spec (internal/experiments trafficForecast): daily and
// weekly seasonality, a trend, noise, outliers and 5% missing samples.
func trafficHistory(days int) []tsdb.Point {
	spec := workload.TrafficSpec{
		Base: 20e6, DailyAmplitude: 0.4, WeeklyAmplitude: 0.15,
		TrendPerDay: 2e5, NoiseStd: 0.02, OutlierProb: 0.005, OutlierScale: 8,
		MissingProb: 0.05, Seed: 99,
	}
	return toPoints(spec.Generate(t0, days*24*60, time.Minute))
}

// fitAllocBytes is the heap bytes one default Prophet fit allocates.
func fitAllocBytes(t *testing.T, pts []tsdb.Point) uint64 {
	t.Helper()
	m, err := NewProphet(nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Fit(pts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestProphetFitAllocationBudget holds a fit's allocations to a budget:
// it keeps a compact design (days and the Fourier block per point),
// not the design matrix, its transpose or per-iteration vectors.
func TestProphetFitAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		days   int
		budget uint64
	}{
		{7, 2 << 20},  // the traffic experiment's history: 9,549 points
		{21, 7 << 20}, // weekly seasonality on: 28,741 points
	} {
		pts := trafficHistory(c.days)
		got := fitAllocBytes(t, pts)
		t.Logf("%d days (%d points): %d KiB", c.days, len(pts), got>>10)
		if got > c.budget {
			t.Errorf("%d-day fit allocated %d KiB, budget %d KiB", c.days, got>>10, c.budget>>10)
		}
	}
}

// TestProphetWeeklyFitPinned pins the bits of a three-week fit's
// forecast. No committed figure turns weekly seasonality on, so this is
// what guards that block of the design.
func TestProphetWeeklyFitPinned(t *testing.T) {
	pts := trafficHistory(21)
	m, err := NewProphet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(pts); err != nil {
		t.Fatal(err)
	}
	if !m.(*Prophet).weeklyOn {
		t.Fatal("weekly seasonality is off for a three-week history")
	}
	preds, err := m.Predict(Horizon(pts[len(pts)-1].T, time.Hour, 7*24))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range preds {
		for _, v := range []float64{p.Mean, p.Lower, p.Upper} {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	const want = "8f95d0a6b547ec5c67ec9cc828d3425371ec679afb7cbe53b030523dd164e46f"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("weekly forecast sha256 = %s, want %s", got, want)
	}
}

// TestProphetSteadyHistoryForecastsItsLevel fits a constant series, the
// history a default daemon serves after its warm-up. A penalised
// intercept offset every residual alike, the MAD scale saw no spread,
// and the fit collapsed toward 0 while its band still read the level.
func TestProphetSteadyHistoryForecastsItsLevel(t *testing.T) {
	const level = 30e6
	for _, n := range []int{10, 30, 60, 1440} {
		pts := make([]tsdb.Point, n)
		for i := range pts {
			pts[i] = tsdb.Point{T: t0.Add(time.Duration(i) * time.Minute), V: level}
		}
		m, err := NewProphet(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(pts); err != nil {
			t.Fatal(err)
		}
		preds, err := m.Predict(Horizon(pts[n-1].T, time.Minute, 60))
		if err != nil {
			t.Fatal(err)
		}
		const tol = 1e-6 * level // rounding, far below the 30 M of the fault
		for _, p := range preds {
			if math.Abs(p.Mean-level) > tol || p.Lower-p.Mean > tol || p.Mean-p.Upper > tol {
				t.Fatalf("%d points: forecast %.17g in [%.17g, %.17g], want %g inside its band", n, p.Mean, p.Lower, p.Upper, level)
			}
		}
	}
}
