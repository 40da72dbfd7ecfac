package forecast

import (
	"fmt"
	"math"
	"sort"
	"time"

	"caladrius/internal/tsdb"
)

// Accuracy summarises a backtest: how well a model's forecasts matched
// held-out observations.
type Accuracy struct {
	// Points is the number of scored forecasts.
	Points int
	// MAPE is the mean absolute percentage error (skipping zero
	// truths).
	MAPE float64
	// RMSE is the root mean squared error.
	RMSE float64
	// Coverage is the fraction of held-out observations inside the
	// model's [Lower, Upper] interval.
	Coverage float64
}

// Backtest evaluates a model configuration by rolling-origin holdout:
// the history's final holdout fraction is hidden, the model is fitted
// on the rest, and its forecasts are scored against the hidden tail.
// It answers "which configured model should this topology use?" —
// the selection problem the paper's pluggable model tier creates.
func Backtest(name string, options map[string]any, history []tsdb.Point, holdout float64) (Accuracy, error) {
	if holdout <= 0 || holdout >= 1 {
		return Accuracy{}, fmt.Errorf("forecast: holdout fraction %g outside (0,1)", holdout)
	}
	pts := ascending(history)
	if len(pts) < 10 {
		return Accuracy{}, fmt.Errorf("%w: %d points", ErrInsufficentData, len(pts))
	}
	cut := int(float64(len(pts)) * (1 - holdout))
	if cut < 5 || cut >= len(pts) {
		return Accuracy{}, fmt.Errorf("%w: holdout %g leaves train %d / test %d", ErrInsufficentData, holdout, cut, len(pts)-cut)
	}
	train, test := pts[:cut], pts[cut:]

	m, err := New(name, options)
	if err != nil {
		return Accuracy{}, err
	}
	if err := m.Fit(train); err != nil {
		return Accuracy{}, err
	}
	times := make([]time.Time, len(test))
	for i, p := range test {
		times[i] = p.T
	}
	preds, err := m.Predict(times)
	if err != nil {
		return Accuracy{}, err
	}

	var acc Accuracy
	var sumAPE, sumSq float64
	var apeN, covered int
	for i, p := range preds {
		truth := test[i].V
		diff := p.Mean - truth
		sumSq += diff * diff
		if truth != 0 {
			sumAPE += math.Abs(diff) / math.Abs(truth)
			apeN++
		}
		if truth >= p.Lower && truth <= p.Upper {
			covered++
		}
	}
	acc.Points = len(preds)
	if apeN > 0 {
		acc.MAPE = sumAPE / float64(apeN)
	}
	acc.RMSE = math.Sqrt(sumSq / float64(len(preds)))
	acc.Coverage = float64(covered) / float64(len(preds))
	return acc, nil
}

// Ranking is one model's backtest outcome.
type Ranking struct {
	Model    string
	Options  map[string]any
	Accuracy Accuracy
	// Err is non-nil when the model could not be evaluated (e.g. not
	// enough history for its seasonality); such models rank last.
	Err error
}

// Rank backtests every candidate and orders them by MAPE ascending,
// inevaluable models last. Candidates are (name, options) pairs, e.g.
// the service's configured traffic models.
func Rank(candidates []struct {
	Name    string
	Options map[string]any
}, history []tsdb.Point, holdout float64) []Ranking {
	out := make([]Ranking, len(candidates))
	for i, c := range candidates {
		acc, err := Backtest(c.Name, c.Options, history, holdout)
		out[i] = Ranking{Model: c.Name, Options: c.Options, Accuracy: acc, Err: err}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].Err == nil) != (out[j].Err == nil) {
			return out[i].Err == nil
		}
		return out[i].Accuracy.MAPE < out[j].Accuracy.MAPE
	})
	return out
}
