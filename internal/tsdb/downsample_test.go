package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The differential oracle for Downsample: the map-based implementation
// every figure CSV and BENCH baseline was generated with, kept verbatim
// over the oracle store's Query (oracle_test.go) so the streaming
// rewrite is tested for bit-identity instead of assumed to have it.

func referenceDownsample(ref *pointDB, metric string, sel Labels, start, end time.Time, step time.Duration, bucketAgg, mergeAgg Agg) (Series, error) {
	if step <= 0 {
		return Series{}, fmt.Errorf("tsdb: non-positive step %s", step)
	}
	series, err := ref.query(metric, sel, start, end)
	if err != nil {
		return Series{}, err
	}
	type bucketKey int64
	perSeries := make([]map[bucketKey]float64, len(series))
	for i, s := range series {
		buckets := make(map[bucketKey][]float64)
		for _, p := range s.Points {
			b := bucketKey(p.T.UnixNano() / int64(step))
			buckets[b] = append(buckets[b], p.V)
		}
		reduced := make(map[bucketKey]float64, len(buckets))
		for b, vs := range buckets {
			v, err := aggregate(bucketAgg, vs)
			if err != nil {
				return Series{}, err
			}
			reduced[b] = v
		}
		perSeries[i] = reduced
	}
	merged := make(map[bucketKey][]float64)
	for _, m := range perSeries {
		for b, v := range m {
			merged[b] = append(merged[b], v)
		}
	}
	keys := make([]bucketKey, 0, len(merged))
	for b := range merged {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := Series{Metric: metric, Labels: sel.Clone()}
	for _, b := range keys {
		v, err := aggregate(mergeAgg, merged[b])
		if err != nil {
			return Series{}, err
		}
		out.Points = append(out.Points, Point{T: time.Unix(0, int64(b)*int64(step)).UTC(), V: v})
	}
	return out, nil
}

var allAggs = []Agg{AggSum, AggMean, AggMin, AggMax, AggCount, AggMedian, AggLast}

// randomStore builds a small seeded store covering the shapes the
// streaming pass must get right: several series per metric under
// overlapping label sets, irregular spacing with gaps, duplicate
// timestamps, out-of-order appends (through a handle kept, a handle
// interned per write and AppendBatch), values whose summation order
// shows in the low bits, non-finite values and signed zeros,
// timestamps straddling the Unix epoch (where the bucket division
// truncates toward zero), and retention on or off. A third of the
// stores run to several hundred points a series, so chunks seal: late
// and equal stamps then land in sealed chunks, retention cuts inside
// them, and a series may hold both saturated instants, the first and
// last an int64 of nanoseconds can. Half the series hold exact decimals
// at one exponent, integers among them, so that their chunks can seal
// decimal; one NaN or −0 part-way breaks such a run. It returns the
// store, the oracle store given the same writes, and the time span the
// points were drawn from.
func randomStore(rng *rand.Rand) (db *DB, ref *pointDB, origin time.Time, span time.Duration) {
	var retention time.Duration
	if rng.Intn(2) == 0 {
		retention = time.Duration(1+rng.Intn(40)) * time.Minute
	}
	db, ref = New(retention), newPointDB(retention)
	origin = t0
	if rng.Intn(3) == 0 {
		origin = time.Unix(-int64(rng.Intn(1800)), -int64(rng.Intn(1e9))).UTC()
	}
	spacing := []time.Duration{time.Second, 7 * time.Second, 10 * time.Second, time.Minute, 61 * time.Second}[rng.Intn(5)]
	points := 1 + rng.Intn(60)
	if rng.Intn(3) == 0 {
		points = 1 + rng.Intn(5*chunkLen)
	}
	span = time.Duration(points) * spacing
	for s, n := 0, rng.Intn(7); s < n; s++ {
		labels := Labels{"component": []string{"a", "b"}[rng.Intn(2)], "instance": fmt.Sprint(rng.Intn(3))}
		if rng.Intn(4) == 0 {
			labels["stream"] = "x"
		}
		h := db.Handle("m", labels)
		// A batch holds a run of consecutive writes, so it is flushed
		// before any write that does not join it.
		var batch []BatchSample
		flush := func() {
			db.AppendBatch(batch)
			batch = batch[:0]
		}
		// Both saturated instants, written one after the other: at the
		// start the jump between them falls inside one chunk. Only one
		// series gets them, as Latest breaks ties between series in map
		// order.
		saturateAt := -1
		if s == 0 && rng.Intn(4) == 0 {
			saturateAt = []int{0, rng.Intn(points)}[rng.Intn(2)]
		}
		// A decimal series draws at one magnitude and rounds to its
		// exponent: 10^-k, k in 0..9.
		decimals, magnitude := rng.Intn(2) == 0, math.Pow(10, float64(rng.Intn(12)-4))
		unit, breakAt := math.Pow(10, float64(rng.Intn(10))), rng.Intn(points)
		var stamps []time.Time
		at := origin.Add(time.Duration(rng.Int63n(int64(spacing))))
		for i := 0; i < points; i++ {
			if i == saturateAt {
				for _, sat := range []time.Time{minInstant, maxInstant} {
					ref.append("m", labels, sat, float64(i))
					h.Append(sat, float64(i))
				}
			}
			switch rng.Intn(12) {
			case 0: // duplicate timestamp
			case 1: // gap
				at = at.Add(time.Duration(2+rng.Intn(20)) * spacing)
			case 2: // jitter off the grid
				at = at.Add(spacing + time.Duration(rng.Int63n(int64(spacing))))
			default:
				at = at.Add(spacing)
			}
			var v float64
			if decimals {
				v = math.Round(rng.NormFloat64()*magnitude*unit) / unit
				if v == 0 {
					v = 0 // not −0, which no decimal chunk holds
				}
				if i == breakAt {
					v = []float64{math.NaN(), math.Copysign(0, -1)}[rng.Intn(2)]
				}
			} else {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
				switch rng.Intn(40) {
				case 0:
					v = math.NaN()
				case 1:
					v = math.Inf(1 - 2*rng.Intn(2))
				case 2:
					v = math.Copysign(0, -1)
				}
			}
			stamp := at
			switch rng.Intn(40) {
			case 0, 1, 2, 3, 4: // out of order
				stamp = at.Add(-time.Duration(rng.Int63n(int64(5 * spacing))))
			case 5: // far out of order, into any chunk
				stamp = at.Add(-time.Duration(rng.Int63n(int64(at.Sub(origin)) + 1)))
			case 6: // equal to any earlier stamp
				if len(stamps) > 0 {
					stamp = stamps[rng.Intn(len(stamps))]
				}
			}
			stamps = append(stamps, stamp)
			ref.append("m", labels, stamp, v)
			switch rng.Intn(3) {
			case 0:
				flush()
				h.Append(stamp, v)
			case 1:
				flush()
				db.Handle("m", labels).Append(stamp, v)
			default:
				batch = append(batch, BatchSample{H: h, T: stamp, V: v})
				if rng.Intn(4) == 0 {
					flush()
				}
			}
		}
		flush()
	}
	return db, ref, origin, span
}

// checkDownsample compares Downsample with the reference for one query
// shape across all 7 × 7 aggregation pairs (plus an unknown aggregation
// on each side), bit for bit.
func checkDownsample(t *testing.T, db *DB, ref *pointDB, metric string, sel Labels, start, end time.Time, step time.Duration) {
	t.Helper()
	aggs := append([]Agg{"bogus"}, allAggs...)
	for _, bucketAgg := range aggs {
		for _, mergeAgg := range aggs {
			want, wantErr := referenceDownsample(ref, metric, sel, start, end, step, bucketAgg, mergeAgg)
			got, gotErr := db.Downsample(metric, sel, start, end, step, bucketAgg, mergeAgg)
			where := fmt.Sprintf("Downsample(%q, %v, [%s, %s), %s, %s, %s)", metric, sel, start, end, step, bucketAgg, mergeAgg)
			if wantErr != nil || gotErr != nil {
				if !sameError(gotErr, wantErr) {
					t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
				}
				continue
			}
			if got.Metric != want.Metric || fmt.Sprint(got.Labels) != fmt.Sprint(want.Labels) || (got.Labels == nil) != (want.Labels == nil) {
				t.Fatalf("%s: identity %q%v, reference %q%v", where, got.Metric, got.Labels, want.Metric, want.Labels)
			}
			if len(got.Points) != len(want.Points) {
				t.Fatalf("%s: %d points, reference %d", where, len(got.Points), len(want.Points))
			}
			for i, p := range got.Points {
				w := want.Points[i]
				if !samePoint(p, w) {
					t.Fatalf("%s: point %d = (%s, %x), reference (%s, %x)", where, i,
						p.T, math.Float64bits(p.V), w.T, math.Float64bits(w.V))
				}
			}
		}
	}
}

// checkSeed runs the differential over one seeded store: selectors
// matching many, one and no series (and an absent metric), ranges
// inside, across and outside the data, and steps that do and do not
// divide the spacing.
func checkSeed(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, ref, origin, span := randomStore(rng)
	selectors := []Labels{nil, {"component": "a"}, {"component": "b", "instance": "1"}, {"component": "absent"}}
	steps := []time.Duration{time.Nanosecond, time.Second, 7 * time.Second, 13 * time.Second, time.Minute, 7 * time.Minute, 24 * time.Hour}
	for i := 0; i < 3; i++ {
		start := origin.Add(time.Duration(rng.Int63n(int64(2*span))) - span/2)
		end := start.Add(time.Duration(rng.Int63n(int64(3 * span))))
		step := steps[rng.Intn(len(steps))]
		sel := selectors[rng.Intn(len(selectors))]
		checkDownsample(t, db, ref, "m", sel, start, end, step)
	}
	whole := origin.Add(-24 * time.Hour)
	checkDownsample(t, db, ref, "m", nil, whole, whole.Add(72*time.Hour), steps[rng.Intn(len(steps))])
	checkDownsample(t, db, ref, "absent", nil, whole, whole.Add(72*time.Hour), time.Minute)
	checkDownsample(t, db, ref, "m", nil, whole, whole.Add(72*time.Hour), -time.Duration(rng.Intn(2)))
}

func TestDownsampleMatchesReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		checkSeed(t, seed)
	}
}

// FuzzDownsampleMatchesReference lets the fuzzer pick the store (by
// generator seed) and the query's alignment directly; the range may
// reach past what int64 nanoseconds represent on either side.
func FuzzDownsampleMatchesReference(f *testing.F) {
	f.Add(int64(1), int64(time.Minute), int64(0), int64(time.Hour))
	f.Add(int64(2), int64(7*time.Second), int64(-time.Minute), int64(3*time.Minute))
	f.Add(int64(3), int64(1), int64(0), int64(1))
	f.Add(int64(5), int64(-1), int64(0), int64(time.Hour))
	f.Add(int64(8), int64(1000*time.Hour), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, seed, step, startOffset, width int64) {
		checkSeed(t, seed)
		db, ref, origin, _ := randomStore(rand.New(rand.NewSource(seed)))
		start := origin.Add(time.Duration(startOffset))
		checkDownsample(t, db, ref, "m", nil, start, start.Add(time.Duration(width)), time.Duration(step))
	})
}
