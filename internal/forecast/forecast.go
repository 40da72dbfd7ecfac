// Package forecast implements Caladrius' traffic-forecast models
// (§IV-A of the paper). Two models are provided behind a common
// interface, mirroring the paper's model tier:
//
//   - Summary: a statistics-summary model (mean / median / quantiles of
//     a historic window), sufficient for stable traffic profiles;
//   - Prophet: a re-implementation of the additive time-series model of
//     Facebook's Prophet library — piecewise-linear trend with
//     changepoints plus Fourier daily/weekly seasonality, fit with an
//     outlier-robust Huber regression — for the strongly seasonal
//     traffic the paper observes in most production topologies.
//
// Models are named so the service can select them from configuration,
// as the original system does with YAML model lists.
package forecast

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"caladrius/internal/tsdb"
)

// Errors returned by models.
var (
	ErrNotFitted       = errors.New("forecast: model has not been fitted")
	ErrInsufficentData = errors.New("forecast: insufficient history")
)

// Prediction is one forecast sample with an uncertainty interval.
type Prediction struct {
	T time.Time
	// Mean is the expected value; Lower and Upper bound the central
	// interval at the model's configured level (default 80%).
	Mean, Lower, Upper float64
}

// Model is the traffic-model interface. Fit consumes a historic series
// (ascending time order enforced internally); Predict evaluates the
// fitted model at future (or past) instants.
type Model interface {
	// Name identifies the model in configuration and API responses.
	Name() string
	// Fit trains on the history. Implementations must tolerate missing
	// samples (irregular spacing) and must not mutate pts.
	Fit(pts []tsdb.Point) error
	// Predict evaluates the model at the given times.
	Predict(times []time.Time) ([]Prediction, error)
}

// Horizon builds the conventional evaluation grid: n points starting
// one step after the last history point.
func Horizon(last time.Time, step time.Duration, n int) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = last.Add(time.Duration(i+1) * step)
	}
	return out
}

// ascending returns pts in ascending time order without exact
// duplicates (the last value kept): pts itself when it already is
// strictly ascending, as every TSDB read is, and a sorted copy
// otherwise. It never writes to pts, and callers only read the result.
func ascending(pts []tsdb.Point) []tsdb.Point {
	i := 1
	for i < len(pts) && pts[i-1].T.Before(pts[i].T) {
		i++
	}
	if i >= len(pts) {
		return pts
	}
	cp := append([]tsdb.Point(nil), pts...)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].T.Before(cp[j].T) })
	out := cp[:0]
	for _, p := range cp {
		if len(out) > 0 && out[len(out)-1].T.Equal(p.T) {
			out[len(out)-1] = p
			continue
		}
		out = append(out, p)
	}
	return out
}

// Factory builds a fresh model instance from free-form options (the
// parsed YAML model configuration).
type Factory func(options map[string]any) (Model, error)

// models is every traffic model, by the name configuration selects it
// with.
var models = map[string]Factory{
	"summary":     NewSummary,
	"prophet":     NewProphet,
	"holtwinters": NewHoltWinters,
}

// New instantiates a model by name.
func New(name string, options map[string]any) (Model, error) {
	f, ok := models[name]
	if !ok {
		return nil, fmt.Errorf("forecast: unknown model %q (registered: %v)", name, Names())
	}
	return f(options)
}

// Names lists the model names, sorted.
func Names() []string {
	out := make([]string, 0, len(models))
	for n := range models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// floatOption reads a numeric option with a default.
func floatOption(options map[string]any, key string, def float64) (float64, error) {
	v, ok := options[key]
	if !ok {
		return def, nil
	}
	switch n := v.(type) {
	case float64:
		return n, nil
	case int64:
		return float64(n), nil
	case int:
		return float64(n), nil
	default:
		return 0, fmt.Errorf("forecast: option %q is %T, want number", key, v)
	}
}

func intOption(options map[string]any, key string, def int) (int, error) {
	f, err := floatOption(options, key, float64(def))
	if err != nil {
		return 0, err
	}
	return int(f), nil
}
