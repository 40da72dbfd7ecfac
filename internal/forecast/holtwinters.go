package forecast

import (
	"fmt"
	"math"
	"slices"
	"time"

	"caladrius/internal/linalg"
	"caladrius/internal/tsdb"
)

// HoltWinters is additive triple exponential smoothing: level, trend
// and a seasonal profile of a fixed period, updated recursively over
// the history. It demonstrates the pluggability of Caladrius' traffic
// model tier — a third model alongside prophet and summary — and is a
// good fit for single-seasonality traffic with modest trend, at a
// fraction of Prophet's fitting cost.
//
// The input series is resampled onto a regular grid (mean per bucket,
// gaps filled by carrying the seasonal expectation forward) before
// smoothing, so irregular and missing samples are tolerated.
type HoltWinters struct {
	// Alpha, Beta, Gamma are the level/trend/season smoothing factors
	// in (0, 1). Defaults 0.3 / 0.05 / 0.25.
	Alpha, Beta, Gamma float64
	// Period is the seasonal period. Default 24h.
	Period time.Duration
	// Step is the resampling grid. Default Period/288 (5-minute buckets
	// for a daily period).
	Step time.Duration
	// IntervalLevel is the central coverage of [Lower, Upper].
	// Default 0.8.
	IntervalLevel float64

	fitted   bool
	level    float64
	trend    float64
	season   []float64 // length Period/Step
	origin   time.Time // grid origin: slot(t) = ((t−origin)/Step) mod len(season)
	lastTime time.Time
	residLo  float64
	residHi  float64
}

// NewHoltWinters builds the model from options: alpha, beta, gamma,
// period_minutes, step_minutes, interval_level.
func NewHoltWinters(options map[string]any) (Model, error) {
	alpha, err := floatOption(options, "alpha", 0.3)
	if err != nil {
		return nil, err
	}
	beta, err := floatOption(options, "beta", 0.05)
	if err != nil {
		return nil, err
	}
	gamma, err := floatOption(options, "gamma", 0.25)
	if err != nil {
		return nil, err
	}
	periodMin, err := floatOption(options, "period_minutes", 24*60)
	if err != nil {
		return nil, err
	}
	stepMin, err := floatOption(options, "step_minutes", periodMin/288)
	if err != nil {
		return nil, err
	}
	level, err := floatOption(options, "interval_level", 0.8)
	if err != nil {
		return nil, err
	}
	m := &HoltWinters{
		Alpha: alpha, Beta: beta, Gamma: gamma,
		Period:        time.Duration(periodMin * float64(time.Minute)),
		Step:          time.Duration(stepMin * float64(time.Minute)),
		IntervalLevel: level,
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func (h *HoltWinters) validate() error {
	for name, v := range map[string]float64{"alpha": h.Alpha, "beta": h.Beta, "gamma": h.Gamma} {
		if v <= 0 || v >= 1 {
			return fmt.Errorf("forecast: holtwinters %s %g outside (0,1)", name, v)
		}
	}
	if h.Period <= 0 || h.Step <= 0 {
		return fmt.Errorf("forecast: holtwinters non-positive period %s or step %s", h.Period, h.Step)
	}
	if h.Period < 2*h.Step {
		return fmt.Errorf("forecast: holtwinters period %s below 2×step %s", h.Period, h.Step)
	}
	if h.IntervalLevel <= 0 || h.IntervalLevel >= 1 {
		return fmt.Errorf("forecast: holtwinters interval level %g outside (0,1)", h.IntervalLevel)
	}
	return nil
}

// Name implements Model.
func (h *HoltWinters) Name() string { return "holtwinters" }

// Fit implements Model.
func (h *HoltWinters) Fit(pts []tsdb.Point) error {
	pts = ascending(pts)
	if len(pts) < 4 {
		return fmt.Errorf("%w: %d points, need ≥ 4", ErrInsufficentData, len(pts))
	}
	span := pts[len(pts)-1].T.Sub(pts[0].T)
	if span < 2*h.Period {
		return fmt.Errorf("%w: span %s below two seasonal periods (%s)", ErrInsufficentData, span, 2*h.Period)
	}
	seasonLen := int(h.Period / h.Step)

	// Resample onto the grid (bucket means).
	origin := pts[0].T.Truncate(h.Step)
	nBuckets := int(pts[len(pts)-1].T.Sub(origin)/h.Step) + 1
	sums := make([]float64, nBuckets)
	counts := make([]int, nBuckets)
	for _, p := range pts {
		b := int(p.T.Sub(origin) / h.Step)
		if b >= 0 && b < nBuckets {
			sums[b] += p.V
			counts[b]++
		}
	}

	// Initialise level/trend from the first period, season from the
	// first two periods' per-slot means.
	var firstMean, secondMean float64
	var firstN, secondN int
	for b := 0; b < nBuckets && b < 2*seasonLen; b++ {
		if counts[b] == 0 {
			continue
		}
		v := sums[b] / float64(counts[b])
		if b < seasonLen {
			firstMean += v
			firstN++
		} else {
			secondMean += v
			secondN++
		}
	}
	if firstN == 0 || secondN == 0 {
		return fmt.Errorf("%w: a full seasonal period has no samples", ErrInsufficentData)
	}
	firstMean /= float64(firstN)
	secondMean /= float64(secondN)
	h.level = firstMean
	h.trend = (secondMean - firstMean) / float64(seasonLen)
	h.season = make([]float64, seasonLen)
	seasonCount := make([]int, seasonLen)
	for b := 0; b < nBuckets && b < 2*seasonLen; b++ {
		if counts[b] == 0 {
			continue
		}
		slot := b % seasonLen
		h.season[slot] += sums[b]/float64(counts[b]) - firstMean
		seasonCount[slot]++
	}
	for s := range h.season {
		if seasonCount[s] > 0 {
			h.season[s] /= float64(seasonCount[s])
		}
	}

	// Recursive smoothing over the full grid, collecting one-step
	// residuals for the intervals.
	var resid []float64
	for b := 0; b < nBuckets; b++ {
		slot := b % seasonLen
		pred := h.level + h.trend + h.season[slot]
		if counts[b] == 0 {
			// Gap: trust the forecast, advance level by the trend.
			h.level += h.trend
			continue
		}
		v := sums[b] / float64(counts[b])
		resid = append(resid, v-pred)
		prevLevel := h.level
		h.level = h.Alpha*(v-h.season[slot]) + (1-h.Alpha)*(h.level+h.trend)
		h.trend = h.Beta*(h.level-prevLevel) + (1-h.Beta)*h.trend
		h.season[slot] = h.Gamma*(v-h.level) + (1-h.Gamma)*h.season[slot]
	}
	// Skip the burn-in third of residuals when enough remain.
	if len(resid) > 30 {
		resid = resid[len(resid)/3:]
	}
	slices.Sort(resid)
	a := (1 - h.IntervalLevel) / 2
	h.residLo = linalg.QuantileSorted(resid, a)
	h.residHi = linalg.QuantileSorted(resid, 1-a)
	h.origin = origin
	h.lastTime = origin.Add(time.Duration(nBuckets-1) * h.Step)
	h.fitted = true
	return nil
}

// Predict implements Model. Times before the end of the history
// evaluate the frozen post-fit state (no refitting), which is adequate
// for Caladrius' forward-looking use.
func (h *HoltWinters) Predict(times []time.Time) ([]Prediction, error) {
	if !h.fitted {
		return nil, ErrNotFitted
	}
	seasonLen := len(h.season)
	out := make([]Prediction, len(times))
	for i, t := range times {
		stepsAhead := float64(t.Sub(h.lastTime)) / float64(h.Step)
		slot := int(math.Floor(float64(t.Sub(h.origin))/float64(h.Step))) % seasonLen
		if slot < 0 {
			slot += seasonLen
		}
		v := h.level + h.trend*stepsAhead + h.season[slot]
		pr := Prediction{T: t, Mean: v, Lower: v + h.residLo, Upper: v + h.residHi}
		if pr.Mean < 0 {
			pr.Mean = 0
		}
		if pr.Lower < 0 {
			pr.Lower = 0
		}
		if pr.Upper < 0 {
			pr.Upper = 0
		}
		out[i] = pr
	}
	return out, nil
}
