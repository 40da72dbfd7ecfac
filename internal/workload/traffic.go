// Package workload provides the synthetic inputs for Caladrius'
// evaluation: the splitter ratio of the paper's Great Gatsby corpus,
// parameterised traffic-rate generators (seasonal, trending, spiky, with
// missing data) used to exercise the traffic-forecast models, the rate
// schedules that drive the simulator, and replayable traffic traces.
// The simulator generates no text: it consumes the corpus only as
// GatsbyMeanSentenceLength, and key skew on fields-grouped streams comes
// from heron's KeyModels.
package workload

import (
	"math"
	"math/rand"
	"time"
)

// GatsbyMeanSentenceLength is the splitter input/output ratio the paper
// measured for its corpus, The Great Gatsby, read a line per sentence
// (Fig. 5: 7.63–7.64).
const GatsbyMeanSentenceLength = 7.635

// TrafficSpec parameterises a synthetic topology source-throughput
// series (tuples per minute). It composes the structures the paper says
// production traffic exhibits — strong daily/weekly seasonality, slow
// trends, shifts, outliers and missing samples — so the forecast models
// can be validated against a known ground truth.
type TrafficSpec struct {
	// Base is the mean rate in tuples per minute.
	Base float64
	// TrendPerDay adds a linear trend (tuples/minute gained per day).
	TrendPerDay float64
	// DailyAmplitude scales a 24-hour sinusoid (fraction of Base, e.g.
	// 0.3 swings ±30%).
	DailyAmplitude float64
	// WeeklyAmplitude scales a 7-day sinusoid (fraction of Base).
	WeeklyAmplitude float64
	// NoiseStd is i.i.d. Gaussian noise (fraction of Base).
	NoiseStd float64
	// OutlierProb is the per-sample probability of a gross spike.
	OutlierProb float64
	// OutlierScale multiplies Base for spike magnitude (default 5).
	OutlierScale float64
	// MissingProb is the per-sample probability the point is dropped
	// (metrics gaps).
	MissingProb float64
	// LevelShiftAt, if positive, multiplies the base by LevelShiftFactor
	// from that sample index onward (a trend changepoint).
	LevelShiftAt     int
	LevelShiftFactor float64
	// Seed makes the series reproducible.
	Seed int64
}

// TrafficPoint is one sample of the generated series.
type TrafficPoint struct {
	T time.Time
	V float64
}

// Generate produces n per-step samples starting at start. Missing
// samples are omitted from the result (not zero-filled), matching how
// a metrics database presents gaps.
func (s TrafficSpec) Generate(start time.Time, n int, step time.Duration) []TrafficPoint {
	rng := rand.New(rand.NewSource(s.Seed))
	outlierScale := s.OutlierScale
	if outlierScale == 0 {
		outlierScale = 5
	}
	shiftFactor := s.LevelShiftFactor
	if shiftFactor == 0 {
		shiftFactor = 1
	}
	out := make([]TrafficPoint, 0, n)
	for i := 0; i < n; i++ {
		// Draw all random variates unconditionally so dropping a point
		// does not shift the remainder of the series.
		noise := rng.NormFloat64()
		outlierDraw := rng.Float64()
		missingDraw := rng.Float64()

		t := start.Add(time.Duration(i) * step)
		v := s.ValueAt(start, t)
		if s.LevelShiftAt > 0 && i >= s.LevelShiftAt {
			v *= shiftFactor
		}
		v += noise * s.NoiseStd * s.Base
		if s.OutlierProb > 0 && outlierDraw < s.OutlierProb {
			v += s.Base * outlierScale
		}
		if v < 0 {
			v = 0
		}
		if s.MissingProb > 0 && missingDraw < s.MissingProb {
			continue
		}
		out = append(out, TrafficPoint{T: t, V: v})
	}
	return out
}

// ValueAt returns the deterministic (noise-free, shift-free) component
// of the series at time t: base + trend + seasonality. Forecast tests
// use it as ground truth.
func (s TrafficSpec) ValueAt(start, t time.Time) float64 {
	elapsed := t.Sub(start)
	days := elapsed.Hours() / 24
	v := s.Base + s.TrendPerDay*days
	if s.DailyAmplitude != 0 {
		frac := float64(t.Unix()%86400) / 86400
		v += s.Base * s.DailyAmplitude * math.Sin(2*math.Pi*frac)
	}
	if s.WeeklyAmplitude != 0 {
		frac := float64(t.Unix()%(7*86400)) / (7 * 86400)
		v += s.Base * s.WeeklyAmplitude * math.Sin(2*math.Pi*frac)
	}
	if v < 0 {
		v = 0
	}
	return v
}

// RateSchedule maps elapsed simulation time to a spout source rate in
// tuples per second. The simulator consumes this to drive experiments.
type RateSchedule func(elapsed time.Duration) float64

// ConstantRate emits a fixed tuples-per-second rate.
func ConstantRate(perSecond float64) RateSchedule {
	return func(time.Duration) float64 { return perSecond }
}

// StepRate switches between rates at the given boundary.
func StepRate(before, after float64, boundary time.Duration) RateSchedule {
	return func(elapsed time.Duration) float64 {
		if elapsed < boundary {
			return before
		}
		return after
	}
}

// SeasonalRate follows the TrafficSpec's deterministic value, converted
// from tuples/minute to tuples/second.
func SeasonalRate(spec TrafficSpec, start time.Time) RateSchedule {
	return func(elapsed time.Duration) float64 {
		return spec.ValueAt(start, start.Add(elapsed)) / 60
	}
}
