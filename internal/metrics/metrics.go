// Package metrics implements Caladrius' metrics-provider component
// (§III-C2 of the paper): a typed query layer over the time-series
// database through which the traffic and performance models obtain the
// arrival rates, processed counts, emit counts, backpressure times and
// CPU loads of running topologies. The concrete implementation reads
// the tsdb that the heron simulator (or any other writer using the
// same metric names) populates.
package metrics

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/tsdb"
)

// ErrNoData mirrors tsdb.ErrNoData for callers of this package.
var ErrNoData = tsdb.ErrNoData

// ErrUnavailable reports that the metrics backend could not be reached
// (outage, partition, timeout). Unlike ErrNoData — a definitive "the
// range holds nothing" — an unavailable backend is transient: callers
// should retry with backoff (see NewRetryingProvider) or surface
// 503 + Retry-After rather than treating the data as absent.
var ErrUnavailable = errors.New("metrics: provider unavailable")

// Window is one metrics rollup interval of one entity (instance or
// component). Rates are raw counts per window, not normalised.
type Window struct {
	T time.Time
	// Source is the external offered load (spouts only; 0 for bolts).
	Source float64
	// Arrival is tuples arriving at the entity in the window.
	Arrival float64
	// Execute is tuples processed (the entity's input throughput).
	Execute float64
	// Emit is tuples emitted (the entity's output throughput).
	Emit float64
	// FailedTuples counts user-logic failures.
	FailedTuples float64
	// BackpressureMs is milliseconds spent initiating backpressure.
	BackpressureMs float64
	// CPULoad is the average cores used over the window.
	CPULoad float64
	// LatencyMs is the average per-tuple queueing delay over the
	// window (mean across instances for component windows).
	LatencyMs float64
}

// Provider is Caladrius' metrics interface. Implementations must
// return windows in ascending time order.
type Provider interface {
	// ComponentWindows returns per-window metrics summed across all
	// instances of a component (CPU load is summed too: it is a
	// component-level cores figure).
	ComponentWindows(topology, component string, start, end time.Time) ([]Window, error)
	// InstanceWindows returns per-window metrics for one instance.
	InstanceWindows(topology, component string, index int, start, end time.Time) ([]Window, error)
	// SourceRate returns the topology's source throughput series:
	// offered tuples per window summed over the given spout
	// components.
	SourceRate(topology string, spouts []string, start, end time.Time) ([]tsdb.Point, error)
	// TopologyBackpressureMs returns the per-window topology-level
	// backpressure time series.
	TopologyBackpressureMs(topology string, start, end time.Time) ([]tsdb.Point, error)
	// StreamEmitTotals returns, per outbound stream of a component
	// (keyed "name->destination"), the total tuples emitted on it over
	// the range. Empty when the writer does not record per-stream
	// counts.
	StreamEmitTotals(topology, component string, start, end time.Time) (map[string]float64, error)
}

// TSDBProvider reads metrics written by the heron simulator.
type TSDBProvider struct {
	db     *tsdb.DB
	window time.Duration
}

// NewTSDBProvider wraps a database. window is the rollup interval the
// writer used (the simulator default is one minute).
func NewTSDBProvider(db *tsdb.DB, window time.Duration) (*TSDBProvider, error) {
	if db == nil {
		return nil, errors.New("metrics: nil database")
	}
	if window <= 0 {
		return nil, fmt.Errorf("metrics: non-positive window %s", window)
	}
	return &TSDBProvider{db: db, window: window}, nil
}

// points fetches one metric for a selector as per-window values in
// ascending time order; a range that holds nothing is empty, not an
// error.
func (p *TSDBProvider) points(metric string, sel tsdb.Labels, start, end time.Time, merge tsdb.Agg) ([]tsdb.Point, error) {
	s, err := p.db.Downsample(metric, sel, start, end, p.window, tsdb.AggSum, merge)
	if err != nil && !errors.Is(err, tsdb.ErrNoData) {
		return nil, err
	}
	return s.Points, nil
}

// mergeWindows hands each point of pts (ascending) to store together
// with the window of ws (ascending) stamped at its time, inserting the
// windows ws lacks. Every metric of one entity is rolled up on the same
// grid, so past the first metric the windows are found in step.
func mergeWindows(ws []Window, pts []tsdb.Point, store func(*Window, float64)) []Window {
	if len(ws) == 0 {
		ws = make([]Window, 0, len(pts))
	}
	i := 0
	for _, pt := range pts {
		for i < len(ws) && ws[i].T.Before(pt.T) {
			i++
		}
		if i == len(ws) || !ws[i].T.Equal(pt.T) {
			ws = append(ws, Window{})
			copy(ws[i+1:], ws[i:])
			ws[i] = Window{T: pt.T}
		}
		store(&ws[i], pt.V)
	}
	return ws
}

// windowMetrics maps each stored metric onto its Window field and its
// cross-instance merge: counts sum, latencies average.
var windowMetrics = []struct {
	name  string
	merge tsdb.Agg
	store func(*Window, float64)
}{
	{heron.MetricSourceCount, tsdb.AggSum, func(w *Window, v float64) { w.Source = v }},
	{heron.MetricArrivalCount, tsdb.AggSum, func(w *Window, v float64) { w.Arrival = v }},
	{heron.MetricExecuteCount, tsdb.AggSum, func(w *Window, v float64) { w.Execute = v }},
	{heron.MetricEmitCount, tsdb.AggSum, func(w *Window, v float64) { w.Emit = v }},
	{heron.MetricFailCount, tsdb.AggSum, func(w *Window, v float64) { w.FailedTuples = v }},
	{heron.MetricBackpressureMs, tsdb.AggSum, func(w *Window, v float64) { w.BackpressureMs = v }},
	{heron.MetricCPULoad, tsdb.AggSum, func(w *Window, v float64) { w.CPULoad = v }},
	{heron.MetricLatencyMs, tsdb.AggMean, func(w *Window, v float64) { w.LatencyMs = v }},
}

func (p *TSDBProvider) windows(sel tsdb.Labels, start, end time.Time) ([]Window, error) {
	var out []Window
	for _, m := range windowMetrics {
		pts, err := p.points(m.name, sel, start, end, m.merge)
		if err != nil {
			return nil, err
		}
		out = mergeWindows(out, pts, m.store)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: selector %v in [%s, %s)", ErrNoData, sel, start, end)
	}
	return out, nil
}

// ComponentWindows implements Provider.
func (p *TSDBProvider) ComponentWindows(topology, component string, start, end time.Time) ([]Window, error) {
	return p.windows(tsdb.Labels{"topology": topology, "component": component}, start, end)
}

// InstanceWindows implements Provider.
func (p *TSDBProvider) InstanceWindows(topology, component string, index int, start, end time.Time) ([]Window, error) {
	return p.windows(tsdb.Labels{
		"topology":  topology,
		"component": component,
		"instance":  fmt.Sprintf("%d", index),
	}, start, end)
}

// SourceRate implements Provider.
func (p *TSDBProvider) SourceRate(topology string, spouts []string, start, end time.Time) ([]tsdb.Point, error) {
	if len(spouts) == 0 {
		return nil, errors.New("metrics: no spout components given")
	}
	var total []tsdb.Point
	for _, spout := range spouts {
		pts, err := p.points(heron.MetricSourceCount, tsdb.Labels{"topology": topology, "component": spout}, start, end, tsdb.AggSum)
		if err != nil {
			return nil, err
		}
		total = sumByTime(total, pts)
	}
	if len(total) == 0 {
		return nil, fmt.Errorf("%w: source rate of %q spouts %v", ErrNoData, topology, spouts)
	}
	return total, nil
}

// sumByTime adds each point of pts (ascending) to the point of sum
// (ascending) at its instant, inserting the instants sum lacks, and
// returns the extended sum. With no sum yet, pts itself becomes the
// totals: a rollup's AggSum starts at +0, as an inserted total does.
func sumByTime(sum, pts []tsdb.Point) []tsdb.Point {
	if sum == nil {
		return pts
	}
	i := 0
	for _, pt := range pts {
		for i < len(sum) && sum[i].T.Before(pt.T) {
			i++
		}
		if i == len(sum) || !sum[i].T.Equal(pt.T) {
			sum = slices.Insert(sum, i, tsdb.Point{T: pt.T})
		}
		sum[i].V += pt.V
	}
	return sum
}

// TopologyBackpressureMs implements Provider.
func (p *TSDBProvider) TopologyBackpressureMs(topology string, start, end time.Time) ([]tsdb.Point, error) {
	s, err := p.db.Downsample(heron.MetricBackpressureMs,
		tsdb.Labels{"topology": topology, "component": heron.TopologyComponent},
		start, end, p.window, tsdb.AggSum, tsdb.AggSum)
	if err != nil {
		return nil, err
	}
	return s.Points, nil
}

// StreamEmitTotals implements Provider.
func (p *TSDBProvider) StreamEmitTotals(topology, component string, start, end time.Time) (map[string]float64, error) {
	out := map[string]float64{}
	for _, stream := range p.db.LabelValues(heron.MetricStreamEmitCount, "stream") {
		total, err := p.db.Aggregate(heron.MetricStreamEmitCount, tsdb.Labels{
			"topology":  topology,
			"component": component,
			"stream":    stream,
		}, start, end, tsdb.AggSum)
		if errors.Is(err, tsdb.ErrNoData) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[stream] = total
	}
	return out, nil
}

// SteadyState summarises a window slice into per-window means, after
// dropping the given number of warmup windows. It is the calibration
// input shape used throughout the models.
type SteadyState struct {
	Windows        int
	Source         float64
	Arrival        float64
	Execute        float64
	Emit           float64
	BackpressureMs float64
	CPULoad        float64
	LatencyMs      float64
}

// Summarise computes the steady-state means of ws after dropping
// warmup leading windows. It errors when nothing remains.
func Summarise(ws []Window, warmup int) (SteadyState, error) {
	if warmup < 0 {
		warmup = 0
	}
	if warmup >= len(ws) {
		return SteadyState{}, fmt.Errorf("metrics: %d windows with warmup %d leaves nothing", len(ws), warmup)
	}
	rest := ws[warmup:]
	var s SteadyState
	for _, w := range rest {
		s.Source += w.Source
		s.Arrival += w.Arrival
		s.Execute += w.Execute
		s.Emit += w.Emit
		s.BackpressureMs += w.BackpressureMs
		s.CPULoad += w.CPULoad
		s.LatencyMs += w.LatencyMs
	}
	n := float64(len(rest))
	s.Windows = len(rest)
	s.Source /= n
	s.Arrival /= n
	s.Execute /= n
	s.Emit /= n
	s.BackpressureMs /= n
	s.CPULoad /= n
	s.LatencyMs /= n
	return s, nil
}
