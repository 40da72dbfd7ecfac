package tsdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// The differential oracle for the whole store: the storage the sample
// representation replaced, kept here verbatim but for its lock (tests
// drive it from one goroutine). Each series is a []Point sorted by
// time.Time, and every read and write compares time.Time values, so it
// answers what the store answered when it held a time.Time per point.

type pointDB struct {
	metrics   map[string]map[string]*pointSeries
	retention time.Duration
}

type pointSeries struct {
	labels Labels
	points []Point // sorted by T ascending
}

// Matches reports whether every key in sel is present in l with an
// equal value. An empty selector matches everything.
func (l Labels) Matches(sel Labels) bool {
	for k, v := range sel {
		if l[k] != v {
			return false
		}
	}
	return true
}

func newPointDB(retention time.Duration) *pointDB {
	return &pointDB{metrics: make(map[string]map[string]*pointSeries), retention: retention}
}

func (db *pointDB) append(metric string, labels Labels, t time.Time, v float64) {
	bySeries, ok := db.metrics[metric]
	if !ok {
		bySeries = make(map[string]*pointSeries)
		db.metrics[metric] = bySeries
	}
	key := labels.canonical()
	sd, ok := bySeries[key]
	if !ok {
		sd = &pointSeries{labels: labels.Clone()}
		bySeries[key] = sd
	}
	n := len(sd.points)
	if n > 0 && t.Before(sd.points[n-1].T) {
		idx := sort.Search(n, func(i int) bool { return sd.points[i].T.After(t) })
		sd.points = append(sd.points, Point{})
		copy(sd.points[idx+1:], sd.points[idx:])
		sd.points[idx] = Point{T: t, V: v}
	} else {
		sd.points = append(sd.points, Point{T: t, V: v})
	}
	if db.retention <= 0 {
		return
	}
	cutoff := sd.points[len(sd.points)-1].T.Add(-db.retention)
	firstKeep := sort.Search(len(sd.points), func(i int) bool { return !sd.points[i].T.Before(cutoff) })
	if firstKeep > 0 {
		sd.points = append(sd.points[:0], sd.points[firstKeep:]...)
	}
}

// query is Query: copies of the matching series in canonical label
// order, each restricted to start ≤ T < end.
func (db *pointDB) query(metric string, sel Labels, start, end time.Time) ([]Series, error) {
	bySeries := db.metrics[metric]
	if len(bySeries) == 0 {
		return nil, fmt.Errorf("%w: metric %q", ErrNoData, metric)
	}
	keys := make([]string, 0, len(bySeries))
	for k, sd := range bySeries {
		if sd.labels.Matches(sel) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []Series
	for _, k := range keys {
		sd := bySeries[k]
		lo := sort.Search(len(sd.points), func(i int) bool { return !sd.points[i].T.Before(start) })
		hi := sort.Search(len(sd.points), func(i int) bool { return !sd.points[i].T.Before(end) })
		if lo >= hi {
			continue
		}
		out = append(out, Series{
			Metric: metric,
			Labels: sd.labels.Clone(),
			Points: append([]Point(nil), sd.points[lo:hi]...),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: metric %q selector %v in [%s, %s)", ErrNoData, metric, sel, start, end)
	}
	return out, nil
}

func (db *pointDB) aggregate(metric string, sel Labels, start, end time.Time, agg Agg) (float64, error) {
	series, err := db.query(metric, sel, start, end)
	if err != nil {
		return 0, err
	}
	var vs []float64
	for _, s := range series {
		for _, p := range s.Points {
			vs = append(vs, p.V)
		}
	}
	return aggregate(agg, vs)
}

func (db *pointDB) latest(metric string, sel Labels) (Point, error) {
	best := Point{T: time.Time{}, V: math.NaN()}
	found := false
	for _, sd := range db.metrics[metric] {
		if !sd.labels.Matches(sel) || len(sd.points) == 0 {
			continue
		}
		p := sd.points[len(sd.points)-1]
		if !found || p.T.After(best.T) {
			best = p
			found = true
		}
	}
	if !found {
		return Point{}, fmt.Errorf("%w: metric %q selector %v", ErrNoData, metric, sel)
	}
	return best, nil
}

func (db *pointDB) labelValues(metric, key string) []string {
	set := map[string]struct{}{}
	for _, sd := range db.metrics[metric] {
		if v, ok := sd.labels[key]; ok {
			set[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (db *pointDB) totalPoints() int {
	var n int
	for _, bySeries := range db.metrics {
		for _, sd := range bySeries {
			n += len(sd.points)
		}
	}
	return n
}

func (db *pointDB) writeSnapshot(w io.Writer) error {
	type entry struct {
		metric string
		key    string
		data   *pointSeries
	}
	var entries []entry
	var total uint64
	for metric, bySeries := range db.metrics {
		for key, sd := range bySeries {
			entries = append(entries, entry{metric, key, sd})
			total += uint64(len(sd.points))
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].metric != entries[j].metric {
			return entries[i].metric < entries[j].metric
		}
		return entries[i].key < entries[j].key
	})
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(snapshotHeader{
		Format:    snapshotFormat,
		Version:   snapshotVersion,
		Retention: int64(db.retention),
		Series:    uint64(len(entries)),
		Points:    total,
	}); err != nil {
		return err
	}
	var buf []byte
	var keys []string
	for _, e := range entries {
		keys = keys[:0]
		for k := range e.data.labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = appendString(buf[:0], e.metric)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = appendString(appendString(buf, k), e.data.labels[k])
		}
		buf = binary.AppendUvarint(buf, uint64(len(e.data.points)))
		var prev int64
		for _, p := range e.data.points {
			ns := p.T.UnixNano()
			buf = binary.AppendVarint(buf, ns-prev)
			prev = ns
		}
		for _, p := range e.data.points {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.V))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// samePoint reports whether two points are the same instant and the
// same value bit for bit.
func samePoint(a, b Point) bool {
	return a.T.Equal(b.T) && math.Float64bits(a.V) == math.Float64bits(b.V)
}

// sameError reports whether two read errors say the same thing.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrNoData) == errors.Is(b, ErrNoData)
}

// checkOracle compares every read but Downsample (checkDownsample's
// subject) over one range: Query and all aggregations of Aggregate
// under each selector, then Latest, LabelValues and TotalPoints.
func checkOracle(t *testing.T, db *DB, ref *pointDB, start, end time.Time) {
	t.Helper()
	for _, sel := range []Labels{nil, {"component": "a"}, {"component": "b", "instance": "1"}, {"stream": "x"}, {"stream": ""}, {"component": "absent"}} {
		for _, metric := range []string{"m", "absent"} {
			where := fmt.Sprintf("(%q, %v, [%s, %s))", metric, sel, start, end)
			got, gotErr := db.Query(metric, sel, start, end)
			want, wantErr := ref.query(metric, sel, start, end)
			if !sameError(gotErr, wantErr) || len(got) != len(want) {
				t.Fatalf("Query%s = %d series, %v; oracle %d, %v", where, len(got), gotErr, len(want), wantErr)
			}
			for i, s := range got {
				w := want[i]
				if s.Metric != w.Metric || fmt.Sprint(s.Labels) != fmt.Sprint(w.Labels) || len(s.Points) != len(w.Points) {
					t.Fatalf("Query%s series %d = %q%v × %d; oracle %q%v × %d", where, i, s.Metric, s.Labels, len(s.Points), w.Metric, w.Labels, len(w.Points))
				}
				for j, p := range s.Points {
					if !samePoint(p, w.Points[j]) {
						t.Fatalf("Query%s series %d point %d = %v; oracle %v", where, i, j, p, w.Points[j])
					}
				}
			}
			for _, agg := range append([]Agg{"bogus"}, allAggs...) {
				got, gotErr := db.Aggregate(metric, sel, start, end, agg)
				want, wantErr := ref.aggregate(metric, sel, start, end, agg)
				if !sameError(gotErr, wantErr) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Aggregate%s %s = %v, %v; oracle %v, %v", where, agg, got, gotErr, want, wantErr)
				}
			}
			gotP, gotErr := db.Latest(metric, sel)
			wantP, wantErr := ref.latest(metric, sel)
			if !sameError(gotErr, wantErr) || (gotErr == nil && !samePoint(gotP, wantP)) {
				t.Fatalf("Latest(%q, %v) = %v, %v; oracle %v, %v", metric, sel, gotP, gotErr, wantP, wantErr)
			}
		}
	}
	for _, key := range []string{"component", "instance", "stream", "absent"} {
		if got, want := db.LabelValues("m", key), ref.labelValues("m", key); !slices.Equal(got, want) {
			t.Fatalf("LabelValues(m, %s) = %v; oracle %v", key, got, want)
		}
	}
	if got, want := db.TotalPoints(), ref.totalPoints(); got != want {
		t.Fatalf("TotalPoints = %d; oracle %d", got, want)
	}
}

// checkOracleSeed runs checkOracle over one seeded store, on ranges
// inside, across and outside its data and on the widest bounds a
// time.Time holds, then compares the two snapshots byte for byte.
func checkOracleSeed(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, ref, origin, span := randomStore(rng)
	for i := 0; i < 3; i++ {
		start := origin.Add(time.Duration(rng.Int63n(int64(2*span))) - span/2)
		checkOracle(t, db, ref, start, start.Add(time.Duration(rng.Int63n(int64(3*span)))))
	}
	checkOracle(t, db, ref, time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))
	var got, want bytes.Buffer
	if err := db.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.writeSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("seed %d: snapshot differs from the oracle's (%d vs %d bytes)", seed, got.Len(), want.Len())
	}
}

func TestStoreMatchesOracle(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		checkOracleSeed(t, seed)
	}
}

// FuzzStoreMatchesOracle lets the fuzzer pick the store (by generator
// seed) and the range, which may reach past what int64 nanoseconds
// represent on either side.
func FuzzStoreMatchesOracle(f *testing.F) {
	f.Add(int64(1), int64(0), int64(time.Hour))
	f.Add(int64(2), int64(-time.Minute), int64(3*time.Minute))
	f.Add(int64(3), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(int64(4), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, seed, startOffset, width int64) {
		checkOracleSeed(t, seed)
		db, ref, origin, _ := randomStore(rand.New(rand.NewSource(seed)))
		start := origin.Add(time.Duration(startOffset))
		checkOracle(t, db, ref, start, start.Add(time.Duration(width)))
	})
}
