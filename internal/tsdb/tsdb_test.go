package tsdb

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func minuteAt(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }

// Metrics returns the sorted names of the metrics present.
func (db *DB) Metrics() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.metrics))
	for m := range db.metrics {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func TestAppendAndQuery(t *testing.T) {
	db := New(0)
	labels := Labels{"topology": "wc", "component": "splitter", "instance": "0"}
	for i := 0; i < 10; i++ {
		db.Handle("emit-count", labels).Append(minuteAt(i), float64(i*100))
	}
	got, err := db.Query("emit-count", Labels{"component": "splitter"}, minuteAt(2), minuteAt(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("series = %d, want 1", len(got))
	}
	pts := got[0].Points
	if len(pts) != 3 || pts[0].V != 200 || pts[2].V != 400 {
		t.Errorf("points = %+v", pts)
	}
	// End bound is exclusive.
	for _, p := range pts {
		if !p.T.Before(minuteAt(5)) || p.T.Before(minuteAt(2)) {
			t.Errorf("point %v outside [2,5)", p.T)
		}
	}
}

func TestQueryCopiesAreIndependent(t *testing.T) {
	db := New(0)
	l := Labels{"instance": "0"}
	db.Handle("m", l).Append(minuteAt(0), 1)
	got, err := db.Query("m", nil, minuteAt(0), minuteAt(1))
	if err != nil {
		t.Fatal(err)
	}
	got[0].Points[0].V = 99
	got[0].Labels["instance"] = "tampered"
	again, err := db.Query("m", nil, minuteAt(0), minuteAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Points[0].V != 1 || again[0].Labels["instance"] != "0" {
		t.Error("query results alias internal state")
	}
}

func TestQueryNoData(t *testing.T) {
	db := New(0)
	if _, err := db.Query("missing", nil, minuteAt(0), minuteAt(1)); !errors.Is(err, ErrNoData) {
		t.Errorf("missing metric: %v", err)
	}
	db.Handle("m", Labels{"a": "1"}).Append(minuteAt(0), 1)
	if _, err := db.Query("m", Labels{"a": "2"}, minuteAt(0), minuteAt(1)); !errors.Is(err, ErrNoData) {
		t.Errorf("non-matching selector: %v", err)
	}
	if _, err := db.Query("m", nil, minuteAt(5), minuteAt(6)); !errors.Is(err, ErrNoData) {
		t.Errorf("empty range: %v", err)
	}
}

func TestOutOfOrderAppend(t *testing.T) {
	db := New(0)
	l := Labels{"i": "0"}
	db.Handle("m", l).Append(minuteAt(5), 5)
	db.Handle("m", l).Append(minuteAt(1), 1)
	db.Handle("m", l).Append(minuteAt(3), 3)
	got, err := db.Query("m", nil, minuteAt(0), minuteAt(10))
	if err != nil {
		t.Fatal(err)
	}
	pts := got[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].T.Before(pts[i-1].T) {
			t.Fatalf("points not sorted: %+v", pts)
		}
	}
	if pts[0].V != 1 || pts[1].V != 3 || pts[2].V != 5 {
		t.Errorf("points = %+v", pts)
	}
}

// TestInstantsOutsideNanosecondRange: int64 Unix nanoseconds run from
// 1677 to 2262. A query bound beyond either end still selects what lies
// between, and a write beyond either end is stored at that end, in
// snapshots too.
func TestInstantsOutsideNanosecondRange(t *testing.T) {
	db := New(0)
	jan5 := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		db.Handle("m", nil).Append(jan5.Add(time.Duration(i)*time.Minute), float64(i+1))
	}
	year1 := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	year9999 := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, r := range [][2]time.Time{{jan5, year9999}, {year1, year9999}, {year1, jan5.Add(time.Hour)}} {
		got, err := db.Query("m", nil, r[0], r[1])
		if err != nil || len(got) != 1 || len(got[0].Points) != 3 || !got[0].Points[0].T.Equal(jan5) {
			t.Errorf("Query [%s, %s) = %+v, %v; want the 3 points from %s", r[0], r[1], got, err, jan5)
		}
		if n, err := db.Aggregate("m", nil, r[0], r[1], AggCount); n != 3 || err != nil {
			t.Errorf("Aggregate count [%s, %s) = %g, %v; want 3", r[0], r[1], n, err)
		}
		s, err := db.Downsample("m", nil, r[0], r[1], 1000*time.Hour, AggSum, AggSum)
		if err != nil || len(s.Points) != 1 || s.Points[0].V != 6 {
			t.Errorf("Downsample [%s, %s) = %+v, %v; want one bucket of 6", r[0], r[1], s.Points, err)
		}
	}
	for _, r := range [][2]time.Time{{year1, year1.Add(time.Hour)}, {year9999, year9999.Add(time.Hour)}} {
		if got, err := db.Query("m", nil, r[0], r[1]); !errors.Is(err, ErrNoData) {
			t.Errorf("Query [%s, %s) = %+v, %v; want ErrNoData", r[0], r[1], got, err)
		}
	}

	db.Handle("far", nil).Append(year9999, 1)
	db.Handle("far", nil).Append(year1, 2)
	back, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, db)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DB{db, back} {
		first, err := d.Query("far", nil, year1, jan5)
		if err != nil || len(first[0].Points) != 1 || first[0].Points[0] != (Point{T: minInstant.UTC(), V: 2}) {
			t.Errorf("year-1 write reads back as %+v, %v; want (%s, 2)", first, err, minInstant.UTC())
		}
		if last, err := d.Latest("far", nil); err != nil || last != (Point{T: maxInstant.UTC(), V: 1}) {
			t.Errorf("year-9999 write reads back as %+v, %v; want (%s, 1)", last, err, maxInstant.UTC())
		}
	}
	// Retention measured back from the first instant does not wrap
	// around to the last and drop the series.
	kept := New(time.Hour)
	kept.Handle("m", nil).Append(year1, 1)
	if n := kept.TotalPoints(); n != 1 {
		t.Errorf("a year-1 write under an hour's retention keeps %d points, want 1", n)
	}
}

func TestRetention(t *testing.T) {
	db := New(10 * time.Minute)
	l := Labels{"i": "0"}
	for i := 0; i < 100; i++ {
		db.Handle("m", l).Append(minuteAt(i), float64(i))
	}
	got, err := db.Query("m", nil, minuteAt(0), minuteAt(200))
	if err != nil {
		t.Fatal(err)
	}
	pts := got[0].Points
	if len(pts) != 11 { // inclusive of the cutoff minute
		t.Fatalf("retained %d points, want 11: %+v", len(pts), pts)
	}
	if pts[0].V != 89 {
		t.Errorf("oldest retained = %g, want 89", pts[0].V)
	}
}

func TestSetRetention(t *testing.T) {
	db := New(0)
	l := Labels{"i": "0"}
	for i := 0; i < 100; i++ {
		db.Handle("m", l).Append(minuteAt(i), float64(i))
	}
	if got := db.TotalPoints(); got != 100 {
		t.Fatalf("points before retention = %d, want 100", got)
	}
	// Tightening retention prunes on the next write to the series —
	// the path cmd/caladrius takes after restoring a -history-file
	// snapshot saved under a different retention setting.
	db.SetRetention(10 * time.Minute)
	db.Handle("m", l).Append(minuteAt(100), 100)
	got, err := db.Query("m", nil, minuteAt(0), minuteAt(200))
	if err != nil {
		t.Fatal(err)
	}
	pts := got[0].Points
	if len(pts) != 11 {
		t.Fatalf("retained %d points, want 11", len(pts))
	}
	if pts[0].V != 90 {
		t.Errorf("oldest retained = %g, want 90", pts[0].V)
	}
	// Loosening back to forever stops further pruning.
	db.SetRetention(0)
	db.Handle("m", l).Append(minuteAt(101), 101)
	if got := db.TotalPoints(); got != 12 {
		t.Errorf("points after disabling retention = %d, want 12", got)
	}
}

func TestAggregations(t *testing.T) {
	db := New(0)
	for i, v := range []float64{1, 2, 3, 4, 5} {
		db.Handle("m", Labels{"i": "0"}).Append(minuteAt(i), v)
	}
	cases := []struct {
		agg  Agg
		want float64
	}{
		{AggSum, 15}, {AggMean, 3}, {AggMin, 1}, {AggMax, 5},
		{AggCount, 5}, {AggMedian, 3}, {AggLast, 5},
	}
	for _, c := range cases {
		got, err := db.Aggregate("m", nil, minuteAt(0), minuteAt(10), c.agg)
		if err != nil {
			t.Fatalf("%s: %v", c.agg, err)
		}
		if got != c.want {
			t.Errorf("%s = %g, want %g", c.agg, got, c.want)
		}
	}
	if _, err := db.Aggregate("m", nil, minuteAt(0), minuteAt(10), Agg("bogus")); err == nil {
		t.Error("unknown aggregation accepted")
	}
	// Even-length median interpolates.
	db2 := New(0)
	for i, v := range []float64{1, 2, 3, 4} {
		db2.Handle("m", Labels{"i": "0"}).Append(minuteAt(i), v)
	}
	got, err := db2.Aggregate("m", nil, minuteAt(0), minuteAt(10), AggMedian)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestDownsampleMergesInstances(t *testing.T) {
	db := New(0)
	// Two instances emitting every 20s; bucket to 1 minute, sum within
	// a bucket per instance, then sum across instances.
	for i := 0; i < 6; i++ {
		ts := t0.Add(time.Duration(i*20) * time.Second)
		db.Handle("emit-count", Labels{"component": "splitter", "instance": "0"}).Append(ts, 10)
		db.Handle("emit-count", Labels{"component": "splitter", "instance": "1"}).Append(ts, 20)
	}
	s, err := db.Downsample("emit-count", Labels{"component": "splitter"}, t0, t0.Add(2*time.Minute), time.Minute, AggSum, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("buckets = %d, want 2: %+v", len(s.Points), s.Points)
	}
	// Each minute has 3 samples per instance: 3*10 + 3*20 = 90.
	for _, p := range s.Points {
		if p.V != 90 {
			t.Errorf("bucket %v = %g, want 90", p.T, p.V)
		}
	}
}

func TestDownsampleMeanMerge(t *testing.T) {
	db := New(0)
	db.Handle("cpu", Labels{"instance": "0"}).Append(minuteAt(0), 0.5)
	db.Handle("cpu", Labels{"instance": "1"}).Append(minuteAt(0), 1.5)
	s, err := db.Downsample("cpu", nil, minuteAt(0), minuteAt(1), time.Minute, AggMean, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 1 || s.Points[0].V != 1.0 {
		t.Errorf("points = %+v, want single 1.0", s.Points)
	}
}

func TestDownsampleRejectsBadStep(t *testing.T) {
	db := New(0)
	db.Handle("m", nil).Append(minuteAt(0), 1)
	if _, err := db.Downsample("m", nil, minuteAt(0), minuteAt(1), 0, AggSum, AggSum); err == nil {
		t.Error("zero step accepted")
	}
}

func TestLatest(t *testing.T) {
	db := New(0)
	db.Handle("m", Labels{"i": "0"}).Append(minuteAt(1), 10)
	db.Handle("m", Labels{"i": "1"}).Append(minuteAt(3), 30)
	p, err := db.Latest("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.V != 30 || !p.T.Equal(minuteAt(3)) {
		t.Errorf("latest = %+v", p)
	}
	if _, err := db.Latest("none", nil); !errors.Is(err, ErrNoData) {
		t.Errorf("latest of missing metric: %v", err)
	}

	// The newest sample in a chunk sealed decimal: appended one at a
	// time, and loaded whole from a snapshot, which never writes these
	// thousandths' longer Gorilla stream.
	sel := Labels{"i": "2"}
	h := db.Handle("m", sel)
	for k := range chunkLen {
		h.Append(minuteAt(4+k), float64(10_000+k)/1e3)
	}
	loaded, err := decodeSnapshot(snapshotBytes(t, db))
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"appended": db, "loaded": loaded} {
		if ch := db.metrics["m"][sel.canonical()].chunks[0]; !ch.dec {
			t.Fatalf("%s: the chunk of thousandths sealed as Gorilla", name)
		}
		if p, err := db.Latest("m", sel); err != nil || p.V != 10.119 || !p.T.Equal(minuteAt(4+chunkLen-1)) {
			t.Errorf("%s: latest in a decimal chunk = %+v, %v", name, p, err)
		}
	}
}

func TestLabelValuesAndMetrics(t *testing.T) {
	db := New(0)
	db.Handle("m", Labels{"component": "b"}).Append(minuteAt(0), 1)
	db.Handle("m", Labels{"component": "a"}).Append(minuteAt(0), 1)
	db.Handle("n", Labels{"component": "c"}).Append(minuteAt(0), 1)
	vals := db.LabelValues("m", "component")
	if len(vals) != 2 || vals[0] != "a" || vals[1] != "b" {
		t.Errorf("values = %v", vals)
	}
	ms := db.Metrics()
	if len(ms) != 2 || ms[0] != "m" || ms[1] != "n" {
		t.Errorf("metrics = %v", ms)
	}
	if db.SeriesCount("m") != 2 {
		t.Errorf("series count = %d", db.SeriesCount("m"))
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	db := New(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := Labels{"instance": string(rune('0' + w))}
			for i := 0; i < 500; i++ {
				db.Handle("m", l).Append(minuteAt(i), float64(i))
				if i%50 == 0 {
					db.Query("m", nil, minuteAt(0), minuteAt(1000)) //nolint:errcheck
					db.Latest("m", nil)                             //nolint:errcheck
				}
			}
		}(w)
	}
	wg.Wait()
	if got := db.TotalPoints(); got != 8*500 {
		t.Errorf("points = %d, want %d", got, 8*500)
	}
}

// TestConcurrentAppendDownsampleWithRetention exercises the scraper's
// live shape under the race detector: writers appending into a store
// with active retention pruning while readers downsample and
// aggregate the same metric.
func TestConcurrentAppendDownsampleWithRetention(t *testing.T) {
	db := New(30 * time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := Labels{"instance": string(rune('0' + w))}
			for i := 0; i < 300; i++ {
				db.Handle("m", l).Append(minuteAt(i), float64(i))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				db.Downsample("m", nil, minuteAt(0), minuteAt(300), 5*time.Minute, AggMean, AggSum) //nolint:errcheck
				db.Aggregate("m", nil, minuteAt(0), minuteAt(300), AggMax)                          //nolint:errcheck
				db.TotalPoints()
			}
		}()
	}
	wg.Wait()
	// Retention kept only the trailing 30 minutes of each series.
	got, err := db.Query("m", Labels{"instance": "0"}, minuteAt(0), minuteAt(300))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got[0].Points); n != 31 {
		t.Errorf("retained %d points, want 31", n)
	}
}

func TestQuickDownsampleSumConservation(t *testing.T) {
	// Property: downsampling with (sum, sum) conserves the total over
	// the queried window regardless of step.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := New(0)
		total := 0.0
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			v := float64(r.Intn(1000))
			inst := string(rune('0' + r.Intn(4)))
			db.Handle("m", Labels{"instance": inst}).Append(t0.Add(time.Duration(r.Intn(3600))*time.Second), v)
			total += v
		}
		for _, step := range []time.Duration{time.Minute, 5 * time.Minute, time.Hour} {
			s, err := db.Downsample("m", nil, t0, t0.Add(2*time.Hour), step, AggSum, AggSum)
			if err != nil {
				return false
			}
			var sum float64
			for _, p := range s.Points {
				sum += p.V
			}
			if diff := sum - total; diff > 1e-6 || diff < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickQueryOrderedAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := New(0)
		for i := 0; i < 100; i++ {
			db.Handle("m", Labels{"i": "0"}).Append(t0.Add(time.Duration(r.Intn(1000))*time.Second), 1)
		}
		start := t0.Add(time.Duration(r.Intn(500)) * time.Second)
		end := start.Add(time.Duration(1+r.Intn(500)) * time.Second)
		series, err := db.Query("m", nil, start, end)
		if errors.Is(err, ErrNoData) {
			return true
		}
		if err != nil {
			return false
		}
		prev := time.Time{}
		for _, p := range series[0].Points {
			if p.T.Before(start) || !p.T.Before(end) {
				return false
			}
			if p.T.Before(prev) {
				return false
			}
			prev = p.T
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A handle interned per write and one interned once address the same
// series.
func TestHandleAppendMatchesAppend(t *testing.T) {
	plain, handled := New(0), New(0)
	labels := Labels{"topology": "wc", "component": "splitter", "instance": "1"}
	h := handled.Handle("emit-count", labels)
	// Mutating the caller's map after Handle must not affect the handle.
	labels["instance"] = "corrupted"
	for i := 0; i < 10; i++ {
		plain.Handle("emit-count", Labels{"topology": "wc", "component": "splitter", "instance": "1"}).Append(minuteAt(i), float64(i))
		h.Append(minuteAt(i), float64(i))
	}
	for _, db := range []*DB{plain, handled} {
		got, err := db.Query("emit-count", Labels{"instance": "1"}, minuteAt(0), minuteAt(10))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || len(got[0].Points) != 10 {
			t.Fatalf("series = %+v, want one series with 10 points", got)
		}
		if got[0].Points[9].V != 9 {
			t.Fatalf("last point = %v, want 9", got[0].Points[9])
		}
	}
}

func TestHandleUnwrittenSeriesInvisible(t *testing.T) {
	db := New(0)
	h := db.Handle("emit-count", Labels{"instance": "0"})
	// Interning a handle must not create the series: queries, metric
	// listings, and series counts only see written data.
	if n := db.SeriesCount("emit-count"); n != 0 {
		t.Fatalf("SeriesCount = %d before first Append, want 0", n)
	}
	if ms := db.Metrics(); len(ms) != 0 {
		t.Fatalf("Metrics = %v before first Append, want none", ms)
	}
	h.Append(minuteAt(0), 42)
	if n := db.SeriesCount("emit-count"); n != 1 {
		t.Fatalf("SeriesCount = %d after Append, want 1", n)
	}
}

func TestHandleConcurrentAppend(t *testing.T) {
	db := New(0)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := db.Handle("m", Labels{"instance": string(rune('a' + g))})
			for i := 0; i < perG; i++ {
				h.Append(minuteAt(i), float64(i))
			}
		}(g)
	}
	wg.Wait()
	if n := db.SeriesCount("m"); n != goroutines {
		t.Fatalf("SeriesCount = %d, want %d", n, goroutines)
	}
	if tp := db.TotalPoints(); tp != goroutines*perG {
		t.Fatalf("TotalPoints = %d, want %d", tp, goroutines*perG)
	}
}

func TestHandlePanicsOnEmptyMetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Handle(\"\") did not panic")
		}
	}()
	New(0).Handle("", nil)
}
