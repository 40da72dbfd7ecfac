package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var tStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func TestTrafficGenerateDeterministic(t *testing.T) {
	spec := TrafficSpec{Base: 1000, DailyAmplitude: 0.3, NoiseStd: 0.05, Seed: 9}
	a := spec.Generate(tStart, 500, time.Minute)
	b := spec.Generate(tStart, 500, time.Minute)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestTrafficSeasonalityShape(t *testing.T) {
	spec := TrafficSpec{Base: 1000, DailyAmplitude: 0.5, Seed: 1}
	pts := spec.Generate(tStart, 24*60, time.Minute)
	if len(pts) != 24*60 {
		t.Fatalf("points = %d", len(pts))
	}
	// Peak near hour 6 (sin max at quarter day), trough near hour 18.
	valueAt := func(h int) float64 { return pts[h*60].V }
	if !(valueAt(6) > valueAt(0) && valueAt(6) > valueAt(18)) {
		t.Errorf("seasonal shape wrong: v0=%g v6=%g v18=%g", valueAt(0), valueAt(6), valueAt(18))
	}
	if math.Abs(valueAt(6)-1500) > 20 {
		t.Errorf("peak = %g, want ≈1500", valueAt(6))
	}
}

func TestTrafficTrendAndShift(t *testing.T) {
	spec := TrafficSpec{Base: 1000, TrendPerDay: 100, LevelShiftAt: 1440, LevelShiftFactor: 2, Seed: 2}
	pts := spec.Generate(tStart, 2*1440, time.Minute)
	first, last := pts[0].V, pts[len(pts)-1].V
	if !(last > first*1.8) {
		t.Errorf("trend+shift: first=%g last=%g", first, last)
	}
	// Shift boundary visible: sample just after 1440 about 2x the one
	// just before (trend is small relative to shift).
	if ratio := pts[1441].V / pts[1439].V; math.Abs(ratio-2) > 0.2 {
		t.Errorf("shift ratio = %g", ratio)
	}
}

func TestTrafficMissingDataDropsSamplesStably(t *testing.T) {
	spec := TrafficSpec{Base: 1000, MissingProb: 0.2, Seed: 3}
	pts := spec.Generate(tStart, 1000, time.Minute)
	if len(pts) >= 1000 || len(pts) < 700 {
		t.Errorf("kept %d of 1000 with 20%% missing", len(pts))
	}
	// Same spec without missing data must produce identical values at
	// the retained timestamps (draws are consumed unconditionally).
	full := TrafficSpec{Base: 1000, Seed: 3}.Generate(tStart, 1000, time.Minute)
	byTime := map[time.Time]float64{}
	for _, p := range full {
		byTime[p.T] = p.V
	}
	for _, p := range pts {
		if v, ok := byTime[p.T]; !ok || v != p.V {
			t.Fatalf("retained sample at %v differs: %g vs %g", p.T, p.V, v)
		}
	}
}

func TestTrafficOutliers(t *testing.T) {
	spec := TrafficSpec{Base: 1000, OutlierProb: 0.05, OutlierScale: 10, Seed: 4}
	pts := spec.Generate(tStart, 2000, time.Minute)
	spikes := 0
	for _, p := range pts {
		if p.V > 5000 {
			spikes++
		}
	}
	if spikes < 50 || spikes > 200 {
		t.Errorf("spikes = %d, want ≈100", spikes)
	}
}

func TestTrafficNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		spec := TrafficSpec{Base: 100, DailyAmplitude: 2, NoiseStd: 3, Seed: seed}
		for _, p := range spec.Generate(tStart, 200, time.Minute) {
			if p.V < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRateSchedules(t *testing.T) {
	c := ConstantRate(50)
	if c(0) != 50 || c(time.Hour) != 50 {
		t.Error("constant rate wrong")
	}
	s := StepRate(10, 20, time.Minute)
	if s(30*time.Second) != 10 || s(time.Minute) != 20 {
		t.Error("step rate wrong")
	}
	spec := TrafficSpec{Base: 600} // 600/min = 10/sec
	sr := SeasonalRate(spec, tStart)
	if got := sr(0); math.Abs(got-10) > 1e-9 {
		t.Errorf("seasonal rate = %g, want 10", got)
	}
}
