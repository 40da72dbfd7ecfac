package forecast

import (
	"fmt"
	"math"
	"slices"
	"time"

	"caladrius/internal/linalg"
	"caladrius/internal/tsdb"
)

// Prophet is a from-scratch implementation of the additive model behind
// Facebook's Prophet library, the forecaster Caladrius uses for
// seasonal topology traffic (§IV-A): non-linear trends fit as piecewise
// linear segments with automatically placed changepoints, plus periodic
// seasonality expressed as truncated Fourier series, robust to missing
// data and large outliers (Huber loss) and to shifts in the trend
// (changepoints).
//
// The model is
//
//	y(t) = g(t) + s_daily(t) + s_weekly(t) + ε
//
// with g a piecewise-linear trend whose slope changes at K changepoints
// spread over the first 80% of the history, and s_p a Fourier series of
// the given order with period p. Coefficients are fit by L2-regularised
// iteratively re-weighted least squares; uncertainty intervals come
// from the empirical residual quantiles.
type Prophet struct {
	// Changepoints is the number of potential trend changepoints K.
	// Default 15.
	Changepoints int
	// DailyOrder and WeeklyOrder are Fourier orders; 0 disables the
	// seasonality. Defaults 6 and 3. Seasonalities whose period is not
	// covered at least twice by the history are disabled at fit time.
	DailyOrder, WeeklyOrder int
	// Ridge is the L2 penalty. Default 1.
	Ridge float64
	// IntervalLevel is the central coverage of [Lower, Upper].
	// Default 0.8.
	IntervalLevel float64

	fitted    bool
	origin    time.Time
	scale     float64 // response scaling for conditioning
	beta      []float64
	dailyOn   bool
	weeklyOn  bool
	cps       []float64 // changepoint offsets in days
	residLo   float64
	residHi   float64
	trainSpan float64 // history span in days
}

// NewProphet builds the model from options: changepoints, daily_order,
// weekly_order, ridge, interval_level.
func NewProphet(options map[string]any) (Model, error) {
	cp, err := intOption(options, "changepoints", 15)
	if err != nil {
		return nil, err
	}
	daily, err := intOption(options, "daily_order", 6)
	if err != nil {
		return nil, err
	}
	weekly, err := intOption(options, "weekly_order", 3)
	if err != nil {
		return nil, err
	}
	ridge, err := floatOption(options, "ridge", 1)
	if err != nil {
		return nil, err
	}
	level, err := floatOption(options, "interval_level", 0.8)
	if err != nil {
		return nil, err
	}
	if cp < 0 || daily < 0 || weekly < 0 {
		return nil, fmt.Errorf("forecast: prophet negative option (changepoints %d, daily %d, weekly %d)", cp, daily, weekly)
	}
	if ridge < 0 {
		return nil, fmt.Errorf("forecast: prophet negative ridge %g", ridge)
	}
	if level <= 0 || level >= 1 {
		return nil, fmt.Errorf("forecast: prophet interval level %g outside (0,1)", level)
	}
	return &Prophet{Changepoints: cp, DailyOrder: daily, WeeklyOrder: weekly, Ridge: ridge, IntervalLevel: level}, nil
}

// Name implements Model.
func (p *Prophet) Name() string { return "prophet" }

const (
	day  = 24 * time.Hour
	week = 7 * day
)

// Fit implements Model.
func (p *Prophet) Fit(pts []tsdb.Point) error {
	pts = ascending(pts)
	if len(pts) < 10 {
		return fmt.Errorf("%w: %d points, need ≥ 10", ErrInsufficentData, len(pts))
	}
	p.origin = pts[0].T
	span := pts[len(pts)-1].T.Sub(pts[0].T)
	p.trainSpan = span.Hours() / 24
	if p.trainSpan <= 0 {
		return fmt.Errorf("%w: zero time span", ErrInsufficentData)
	}
	p.dailyOn = p.DailyOrder > 0 && span >= 2*day
	p.weeklyOn = p.WeeklyOrder > 0 && span >= 2*week

	// Changepoints over the first 80% of the history.
	k := p.Changepoints
	if k > len(pts)/3 {
		k = len(pts) / 3 // avoid more changepoints than data can support
	}
	p.cps = make([]float64, k)
	for i := range p.cps {
		p.cps[i] = p.trainSpan * 0.8 * float64(i+1) / float64(k+1)
	}

	// Scale the response for conditioning.
	var maxAbs float64
	for _, pt := range pts {
		if a := math.Abs(pt.V); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	p.scale = maxAbs

	// The design is kept compact: each point's offset in days and its
	// Fourier block, computed once. The intercept, slope and hinges are
	// rebuilt into the caller's row on every pass.
	trend, cols := 2+len(p.cps), p.featureCount()
	seasons := cols - trend
	days := make([]float64, len(pts))
	fourier := make([]float64, len(pts)*seasons)
	y := make([]float64, len(pts))
	for i, pt := range pts {
		days[i] = pt.T.Sub(p.origin).Hours() / 24
		p.fillSeasons(fourier[i*seasons:(i+1)*seasons], days[i])
		y[i] = pt.V / p.scale
	}
	rows := func(i int, row []float64) {
		p.fillTrend(row, days[i])
		copy(row[trend:], fourier[i*seasons:(i+1)*seasons])
	}
	beta, err := linalg.HuberRegression(rows, cols, y, p.Ridge)
	if err != nil {
		return fmt.Errorf("forecast: prophet fit: %w", err)
	}
	p.beta = beta

	// Residual quantiles for intervals (on the original scale), written
	// over y.
	row := make([]float64, cols)
	for i := range y {
		rows(i, row)
		var v float64
		for j, b := range beta {
			v += row[j] * b
		}
		y[i] = (y[i] - v) * p.scale
	}
	slices.Sort(y)
	alpha := (1 - p.IntervalLevel) / 2
	p.residLo = linalg.QuantileSorted(y, alpha)
	p.residHi = linalg.QuantileSorted(y, 1-alpha)
	p.fitted = true
	return nil
}

func (p *Prophet) featureCount() int {
	n := 2 + len(p.cps) // intercept, slope, changepoint deltas
	if p.dailyOn {
		n += 2 * p.DailyOrder
	}
	if p.weeklyOn {
		n += 2 * p.WeeklyOrder
	}
	return n
}

// fillRow writes the design-matrix row for time t.
func (p *Prophet) fillRow(row []float64, t time.Time) {
	days := t.Sub(p.origin).Hours() / 24
	p.fillTrend(row, days)
	p.fillSeasons(row[2+len(p.cps):], days)
}

// fillTrend writes a row's intercept, slope and changepoint hinges.
func (p *Prophet) fillTrend(row []float64, days float64) {
	row[0] = 1
	row[1] = days
	hinges := row[2 : 2+len(p.cps)]
	for i, cp := range p.cps {
		if days <= cp { // the changepoints ascend: the rest are 0 too
			clear(hinges[i:])
			return
		}
		hinges[i] = days - cp
	}
}

// fillSeasons writes a row's Fourier block: daily, then weekly terms.
func (p *Prophet) fillSeasons(row []float64, days float64) {
	idx := 0
	if p.dailyOn {
		frac := 2 * math.Pi * (days - math.Floor(days))
		for o := 1; o <= p.DailyOrder; o++ {
			row[idx] = math.Sin(float64(o) * frac)
			row[idx+1] = math.Cos(float64(o) * frac)
			idx += 2
		}
	}
	if p.weeklyOn {
		wfrac := 2 * math.Pi * (days/7 - math.Floor(days/7))
		for o := 1; o <= p.WeeklyOrder; o++ {
			row[idx] = math.Sin(float64(o) * wfrac)
			row[idx+1] = math.Cos(float64(o) * wfrac)
			idx += 2
		}
	}
}

// Predict implements Model. Forecast values are clamped at zero:
// traffic rates cannot be negative.
func (p *Prophet) Predict(times []time.Time) ([]Prediction, error) {
	if !p.fitted {
		return nil, ErrNotFitted
	}
	out := make([]Prediction, len(times))
	row := make([]float64, p.featureCount())
	for i, t := range times {
		p.fillRow(row, t)
		var v float64
		for j, b := range p.beta {
			v += row[j] * b
		}
		v *= p.scale
		pr := Prediction{T: t, Mean: v, Lower: v + p.residLo, Upper: v + p.residHi}
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
