//go:build !race

// The race detector allocates shadow memory beside every object, so a
// resident-bytes budget holds only in a normal build.

package tsdb

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// Resident heap bytes per stored sample, ROADMAP item 6's memory
// budget, for two shapes. Each store holds every series as sealed
// chunks (chunk.go), each stream cut to its length, which the allocator
// rounds up to its size class, plus a 40-byte chunk header and each
// series' canonical key, cursors and index entry. Measured on go1.24,
// linux/amd64. An appended budget keeps a fifth over its measurement
// and a loaded one a twenty-fifth, the headroom the first budgets kept.
var residentShapes = []struct {
	name             string
	series, points   int
	interval         time.Duration
	values           func(rng *rand.Rand, series int) []float64
	appended, loaded float64 // budgets, bytes a sample
}{
	// Counts: series i holds i·m at minute m. The values are integers,
	// and the chunks whose decimal stream is shorter seal decimal at
	// e = 0. Measured 1.94 appended and 1.94 loaded; 2.06–2.19 and
	// 2.21 while each series also kept a label map, 2.96 and 3.11 with
	// Gorilla chunks only.
	{"counts", 200, 1440, time.Minute, func(_ *rand.Rand, i int) []float64 {
		vs := make([]float64, 1440)
		for m := range vs {
			vs[m] = float64(i * m)
		}
		return vs
	}, 2.35, 2.05},
	// The shape of the benchmark's preloaded history: a bounded random
	// walk at three decimals every 5 s. Every chunk seals decimal at
	// e = 3, with 16-bit differences. Measured 3.11 appended and 3.11
	// loaded; 3.61 and 3.63 while each series also kept a label map,
	// 8.68 and 8.72 with Gorilla chunks only.
	{"walk", 800, 720, 5 * time.Second, func(rng *rand.Rand, _ int) []float64 {
		const lo, hi = 0, 1e3
		vs := make([]float64, 720)
		v := lo + rng.Float64()*(hi-lo)
		for m := range vs {
			v = min(max(v+(rng.Float64()-0.5)*(hi-lo)*0.05, lo), hi)
			vs[m] = math.Round(v*1e3) / 1e3
		}
		return vs
	}, 3.75, 3.25},
}

// TestResidentBytesPerSample measures heap growth after a GC divided by
// the samples stored, for each shape's store appended through handles
// one instant at a time, as the scraper writes, and for the same store
// loaded from its snapshot.
func TestResidentBytesPerSample(t *testing.T) {
	if typ := reflect.TypeOf(chunk{}.b).Elem(); hasPointers(typ) {
		t.Fatalf("a chunk's payload of %v holds a pointer: the collector would scan every stored chunk", typ)
	}
	if size := reflect.TypeOf(chunk{}).Size(); size != 40 {
		t.Fatalf("a chunk header is %d bytes, want 40", size)
	}
	for _, shape := range residentShapes {
		rng := rand.New(rand.NewSource(1))
		values := make([][]float64, shape.series)
		for i := range values {
			values[i] = shape.values(rng, i)
		}
		perSample := func(before, after uint64) float64 {
			return float64(int64(after-before)) / float64(shape.series*shape.points)
		}

		before := liveHeap()
		db := New(0)
		hs := make([]*SeriesHandle, shape.series)
		for i := range hs {
			hs[i] = db.Handle("caladrius_http_requests_total", Labels{"route": "/api/v1/r" + strconv.Itoa(i), "code": "200"})
		}
		for m := 0; m < shape.points; m++ {
			for i, h := range hs {
				h.Append(t0.Add(time.Duration(m)*shape.interval), values[i][m])
			}
		}
		appended := perSample(before, liveHeap())
		runtime.KeepAlive(db)
		runtime.KeepAlive(values)

		snap := snapshotBytes(t, db)
		db, hs = nil, nil
		before = liveHeap()
		loaded, err := decodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		fromSnapshot := perSample(before, liveHeap())
		runtime.KeepAlive(loaded)
		runtime.KeepAlive(snap)

		t.Logf("resident bytes/sample, %s: appended %.2f (budget %g), loaded %.2f (budget %g)",
			shape.name, appended, shape.appended, fromSnapshot, shape.loaded)
		if appended > shape.appended {
			t.Errorf("%s: appended store holds %.2f bytes/sample, budget %g", shape.name, appended, shape.appended)
		}
		if fromSnapshot > shape.loaded {
			t.Errorf("%s: loaded store holds %.2f bytes/sample, budget %g", shape.name, fromSnapshot, shape.loaded)
		}
	}
}

// seriesBudget is TestSeriesResidentBytes' budget, bytes a series:
// measured 345 (go1.24, linux/amd64), 663 while each series also kept
// a label map, which its handle cloned.
const seriesBudget = 360

// TestSeriesResidentBytes measures what a series costs beside its
// samples: heap growth after a GC, divided by the series, for 1,920
// series shaped like the scraper's latency-bucket series (route,
// method, class and le labels), one sample each, their handles
// dropped. Each keeps its canonical key, its index entry, its cursors
// and one chunk.
func TestSeriesResidentBytes(t *testing.T) {
	les := []string{"0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "+Inf"}
	before := liveHeap()
	db := New(0)
	n := 0
	for r := 0; r < 20; r++ {
		route := "/api/v1/model/topology/t" + strconv.Itoa(r) + "/performance"
		for _, method := range []string{"GET", "POST"} {
			for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
				for _, le := range les {
					db.Handle("caladrius_http_request_duration_seconds_bucket",
						Labels{"route": route, "method": method, "class": class, "le": le}).Append(t0, float64(n))
					n++
				}
			}
		}
	}
	perSeries := float64(int64(liveHeap()-before)) / float64(n)
	runtime.KeepAlive(db)
	t.Logf("resident bytes/series: %.0f over %d series (budget %d)", perSeries, n, seriesBudget)
	if perSeries > seriesBudget {
		t.Errorf("a series holds %.0f bytes beside its sample, budget %d", perSeries, seriesBudget)
	}
}

// liveHeap is the heap in use after two collections. One is not
// enough: a sync.Pool's victim cache (the chunk encoder's scratch
// buffers) outlives the first and dies in the next, so with one GC the
// reading before a store still held memory the reading after it had
// freed, and a test read up to 6 % low depending on what ran before.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// hasPointers reports whether a value of typ holds anything the garbage
// collector must follow.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	default:
		return false
	}
}
