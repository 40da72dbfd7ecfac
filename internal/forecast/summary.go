package forecast

import (
	"fmt"
	"slices"

	"caladrius/internal/linalg"
	"caladrius/internal/tsdb"
	"time"
)

// SummaryStats are the descriptive statistics the summary model derives
// from its history window; the API returns them alongside the forecast
// (the paper: "a simple statistical summary (mean, median, etc.) of a
// given period of historic data may be sufficient").
type SummaryStats struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
	Q10    float64 `json:"q10"`
	Q90    float64 `json:"q90"`
	Q95    float64 `json:"q95"`
}

// Summary is the statistics-summary traffic model: the forecast is a
// constant — a chosen statistic of the history — with quantile bounds.
type Summary struct {
	// Stat selects the central statistic: "mean" (default) or
	// "median".
	Stat  string
	stats SummaryStats
	fit   bool
}

// NewSummary builds the model from options ({"stat": "mean"|"median"}).
func NewSummary(options map[string]any) (Model, error) {
	stat := "mean"
	if v, ok := options["stat"]; ok {
		s, isStr := v.(string)
		if !isStr {
			return nil, fmt.Errorf("forecast: summary option stat is %T, want string", v)
		}
		stat = s
	}
	if stat != "mean" && stat != "median" {
		return nil, fmt.Errorf("forecast: summary stat %q, want mean or median", stat)
	}
	return &Summary{Stat: stat}, nil
}

// Name implements Model.
func (s *Summary) Name() string { return "summary" }

// Fit implements Model.
func (s *Summary) Fit(pts []tsdb.Point) error {
	pts = ascending(pts)
	if len(pts) == 0 {
		return fmt.Errorf("%w: no points", ErrInsufficentData)
	}
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.V
	}
	// Mean and Stddev sum in time order; the order statistics then
	// read one sort of the same values.
	mean, stddev := linalg.Mean(vals), linalg.Stddev(vals)
	slices.Sort(vals)
	s.stats = SummaryStats{
		Count:  len(vals),
		Mean:   mean,
		Median: linalg.QuantileSorted(vals, 0.5),
		Min:    linalg.QuantileSorted(vals, 0),
		Max:    linalg.QuantileSorted(vals, 1),
		Stddev: stddev,
		Q10:    linalg.QuantileSorted(vals, 0.10),
		Q90:    linalg.QuantileSorted(vals, 0.90),
		Q95:    linalg.QuantileSorted(vals, 0.95),
	}
	s.fit = true
	return nil
}

// Predict implements Model.
func (s *Summary) Predict(times []time.Time) ([]Prediction, error) {
	if !s.fit {
		return nil, ErrNotFitted
	}
	center := s.stats.Mean
	if s.Stat == "median" {
		center = s.stats.Median
	}
	out := make([]Prediction, len(times))
	for i, t := range times {
		out[i] = Prediction{T: t, Mean: center, Lower: s.stats.Q10, Upper: s.stats.Q90}
	}
	return out, nil
}

// Stats returns the descriptive statistics of the fitted window.
func (s *Summary) Stats() (SummaryStats, error) {
	if !s.fit {
		return SummaryStats{}, ErrNotFitted
	}
	return s.stats, nil
}
