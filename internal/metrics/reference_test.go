package metrics

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/tsdb"
)

// The map-based assembly TSDBProvider used before it merged the
// time-sorted Downsample outputs directly, kept verbatim as the oracle
// the merge is compared against bit for bit.

func (p *TSDBProvider) seriesByTime(metric string, sel tsdb.Labels, start, end time.Time, agg tsdb.Agg) (map[time.Time]float64, error) {
	s, err := p.db.Downsample(metric, sel, start, end, p.window, tsdb.AggSum, agg)
	if err != nil {
		if errors.Is(err, tsdb.ErrNoData) {
			return map[time.Time]float64{}, nil
		}
		return nil, err
	}
	out := make(map[time.Time]float64, len(s.Points))
	for _, pt := range s.Points {
		out[pt.T] = pt.V
	}
	return out, nil
}

func (p *TSDBProvider) referenceWindows(sel tsdb.Labels, start, end time.Time) ([]Window, error) {
	type metricSpec struct {
		name  string
		merge tsdb.Agg
		store func(*Window, float64)
	}
	specs := []metricSpec{
		{heron.MetricSourceCount, tsdb.AggSum, func(w *Window, v float64) { w.Source = v }},
		{heron.MetricArrivalCount, tsdb.AggSum, func(w *Window, v float64) { w.Arrival = v }},
		{heron.MetricExecuteCount, tsdb.AggSum, func(w *Window, v float64) { w.Execute = v }},
		{heron.MetricEmitCount, tsdb.AggSum, func(w *Window, v float64) { w.Emit = v }},
		{heron.MetricFailCount, tsdb.AggSum, func(w *Window, v float64) { w.FailedTuples = v }},
		{heron.MetricBackpressureMs, tsdb.AggSum, func(w *Window, v float64) { w.BackpressureMs = v }},
		{heron.MetricCPULoad, tsdb.AggSum, func(w *Window, v float64) { w.CPULoad = v }},
		{heron.MetricLatencyMs, tsdb.AggMean, func(w *Window, v float64) { w.LatencyMs = v }},
	}
	byTime := map[time.Time]*Window{}
	found := false
	for _, spec := range specs {
		vals, err := p.seriesByTime(spec.name, sel, start, end, spec.merge)
		if err != nil {
			return nil, err
		}
		for t, v := range vals {
			found = true
			w, ok := byTime[t]
			if !ok {
				w = &Window{T: t}
				byTime[t] = w
			}
			spec.store(w, v)
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: selector %v in [%s, %s)", ErrNoData, sel, start, end)
	}
	out := make([]Window, 0, len(byTime))
	for _, w := range byTime {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out, nil
}

func (p *TSDBProvider) referenceSourceRate(topology string, spouts []string, start, end time.Time) ([]tsdb.Point, error) {
	if len(spouts) == 0 {
		return nil, errors.New("metrics: no spout components given")
	}
	totals := map[time.Time]float64{}
	for _, spout := range spouts {
		vals, err := p.seriesByTime(heron.MetricSourceCount, tsdb.Labels{"topology": topology, "component": spout}, start, end, tsdb.AggSum)
		if err != nil {
			return nil, err
		}
		for t, v := range vals {
			totals[t] += v
		}
	}
	if len(totals) == 0 {
		return nil, fmt.Errorf("%w: source rate of %q spouts %v", ErrNoData, topology, spouts)
	}
	out := make([]tsdb.Point, 0, len(totals))
	for t, v := range totals {
		out = append(out, tsdb.Point{T: t, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out, nil
}

// sameBits compares two values of one struct-of-time-and-floats slice
// type field for field, floats by their bit patterns.
func sameBits(t *testing.T, what string, got, want any, gotErr, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() ||
			errors.Is(gotErr, ErrNoData) != errors.Is(wantErr, ErrNoData) {
			t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
		}
		return
	}
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	if g.Len() != w.Len() {
		t.Fatalf("%s: %d entries, reference %d", what, g.Len(), w.Len())
	}
	for i := 0; i < g.Len(); i++ {
		for f := 0; f < g.Index(i).NumField(); f++ {
			gf, wf := g.Index(i).Field(f), w.Index(i).Field(f)
			name := g.Index(i).Type().Field(f).Name
			if gf.Kind() == reflect.Float64 {
				if math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) {
					t.Fatalf("%s: entry %d %s = %x, reference %x", what, i, name, math.Float64bits(gf.Float()), math.Float64bits(wf.Float()))
				}
			} else if gf.Interface() != wf.Interface() {
				t.Fatalf("%s: entry %d %s = %v, reference %v", what, i, name, gf.Interface(), wf.Interface())
			}
		}
	}
}

// TestWindowsMatchReference pins ComponentWindows, InstanceWindows and
// SourceRate on the word-count substrate — saturated, so backpressure
// and latency series are populated — to the pre-merge assembly, over
// ranges that are whole, partial, off the rollup grid and empty.
func TestWindowsMatchReference(t *testing.T) {
	s := runSim(t, heron.WordCountOptions{SplitterP: 3, CounterP: 4, RatePerMinute: 45e6}, 40)
	p := provider(t, s)
	t0 := s.Start()
	ranges := [][2]time.Time{
		{t0, t0.Add(40 * time.Minute)},
		{t0.Add(7 * time.Minute), t0.Add(12 * time.Minute)},
		{t0.Add(90 * time.Second), t0.Add(10*time.Minute + time.Second)},
		{t0.Add(-time.Hour), t0.Add(2 * time.Minute)},
		{t0.Add(2 * time.Hour), t0.Add(3 * time.Hour)}, // nothing there: ErrNoData
		{t0.Add(5 * time.Minute), t0.Add(5 * time.Minute)},
	}
	for _, r := range ranges {
		for _, comp := range []string{"spout", "splitter", "counter", heron.TopologyComponent, "absent"} {
			sel := tsdb.Labels{"topology": "word-count", "component": comp}
			want, wantErr := p.referenceWindows(sel, r[0], r[1])
			got, gotErr := p.ComponentWindows("word-count", comp, r[0], r[1])
			sameBits(t, fmt.Sprintf("ComponentWindows(%s, %v)", comp, r), got, want, gotErr, wantErr)
			for _, idx := range []int{0, 2, 9} {
				sel := tsdb.Labels{"topology": "word-count", "component": comp, "instance": fmt.Sprint(idx)}
				want, wantErr := p.referenceWindows(sel, r[0], r[1])
				got, gotErr := p.InstanceWindows("word-count", comp, idx, r[0], r[1])
				sameBits(t, fmt.Sprintf("InstanceWindows(%s, %d, %v)", comp, idx, r), got, want, gotErr, wantErr)
			}
		}
		for _, spouts := range [][]string{{"spout"}, {"spout", "absent"}, {"absent"}, {"spout", "spout", "splitter"}, nil} {
			want, wantErr := p.referenceSourceRate("word-count", spouts, r[0], r[1])
			got, gotErr := p.SourceRate("word-count", spouts, r[0], r[1])
			sameBits(t, fmt.Sprintf("SourceRate(%v, %v)", spouts, r), got, want, gotErr, wantErr)
		}
	}
}

// TestMergeWindowsOffGrid covers what the simulator never produces:
// metrics of one entity present at different instants, so windows are
// inserted before, between and after the ones already there.
func TestMergeWindowsOffGrid(t *testing.T) {
	db := tsdb.New(0)
	at := func(m int) time.Time { return time.Date(2026, 7, 1, 0, m, 0, 0, time.UTC) }
	sel := tsdb.Labels{"topology": "t", "component": "c", "instance": "0"}
	for _, m := range []int{2, 4, 6} {
		db.Handle(heron.MetricArrivalCount, sel).Append(at(m), float64(m))
	}
	for _, m := range []int{1, 3, 4, 9} {
		db.Handle(heron.MetricEmitCount, sel).Append(at(m), float64(10*m))
	}
	for _, m := range []int{0, 9, 11} {
		db.Handle(heron.MetricSourceCount, sel).Append(at(m), float64(100*m))
	}
	p, err := NewTSDBProvider(db, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := p.referenceWindows(tsdb.Labels{"topology": "t", "component": "c"}, at(0), at(30))
	got, gotErr := p.ComponentWindows("t", "c", at(0), at(30))
	sameBits(t, "ComponentWindows", got, want, gotErr, wantErr)
	if len(got) != 8 {
		t.Fatalf("windows = %d, want one per distinct minute (8)", len(got))
	}
}

// TestSourceRateOffGrid sums spouts sampled at different instants, so
// totals are inserted before, between and after the ones already there,
// and a -0 sample totals +0, as in the reference.
func TestSourceRateOffGrid(t *testing.T) {
	db := tsdb.New(0)
	at := func(m int) time.Time { return time.Date(2026, 7, 1, 0, m, 0, 0, time.UTC) }
	samples := map[string][]int{"a": {2, 4, 6}, "b": {1, 3, 4, 9}, "c": {0, 9, 11}}
	for spout, ms := range samples {
		h := db.Handle(heron.MetricSourceCount, tsdb.Labels{"topology": "t", "component": spout, "instance": "0"})
		for _, m := range ms {
			v := float64(m) + 0.1
			if m == 0 {
				v = math.Copysign(0, -1)
			}
			h.Append(at(m), v)
		}
	}
	p, err := NewTSDBProvider(db, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, spouts := range [][]string{{"a", "b", "c"}, {"c", "a"}, {"c"}} {
		want, wantErr := p.referenceSourceRate("t", spouts, at(0), at(30))
		got, gotErr := p.SourceRate("t", spouts, at(0), at(30))
		sameBits(t, fmt.Sprintf("SourceRate(%v)", spouts), got, want, gotErr, wantErr)
	}
}
