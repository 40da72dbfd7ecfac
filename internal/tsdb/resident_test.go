//go:build !race

// The race detector allocates shadow memory beside every object, so a
// resident-bytes budget holds only in a normal build.

package tsdb

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// Resident heap bytes per stored sample, ROADMAP item 6's memory
// budget. Both stores hold each series as 12 sealed chunks (chunk.go),
// each a Gorilla bitstream cut to its length, which the allocator
// rounds up to its size class, plus a 40-byte chunk header and each
// series' labels, cursors and index entries: 2.99 bytes a sample
// measured appended and 3.13 snapshot-loaded (go1.24, linux/amd64).
// The budgets keep the headroom the 16-byte samples had.
const (
	appendedBytesPerSample = 3.6
	loadedBytesPerSample   = 3.25
)

// TestResidentBytesPerSample measures heap growth after a GC divided by
// the samples stored, for 200 series × 1,440 minutes appended through
// handles and for the same store loaded from its snapshot.
func TestResidentBytesPerSample(t *testing.T) {
	if typ := reflect.TypeOf(chunk{}.b).Elem(); hasPointers(typ) {
		t.Fatalf("a chunk's payload of %v holds a pointer: the collector would scan every stored chunk", typ)
	}
	const series, minutes = 200, 1440
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perSample := func(before, after uint64) float64 {
		return float64(int64(after-before)) / (series * minutes)
	}

	before := heap()
	db := New(0)
	hs := make([]*SeriesHandle, series)
	for i := range hs {
		hs[i] = db.Handle("caladrius_http_requests_total", Labels{"route": "/api/v1/r" + strconv.Itoa(i), "code": "200"})
	}
	for m := 0; m < minutes; m++ {
		for i, h := range hs {
			h.Append(minuteAt(m), float64(i*m))
		}
	}
	appended := perSample(before, heap())
	runtime.KeepAlive(db)

	snap := snapshotBytes(t, db)
	db, hs = nil, nil
	before = heap()
	loaded, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	fromSnapshot := perSample(before, heap())
	runtime.KeepAlive(loaded)
	runtime.KeepAlive(snap)

	t.Logf("resident bytes/sample: appended %.2f (budget %g), loaded %.2f (budget %g)",
		appended, appendedBytesPerSample, fromSnapshot, loadedBytesPerSample)
	if appended > appendedBytesPerSample {
		t.Errorf("appended store holds %.2f bytes/sample, budget %g", appended, appendedBytesPerSample)
	}
	if fromSnapshot > loadedBytesPerSample {
		t.Errorf("loaded store holds %.2f bytes/sample, budget %g", fromSnapshot, loadedBytesPerSample)
	}
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
