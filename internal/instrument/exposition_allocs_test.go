//go:build !race

// The race detector changes what escapes, so an allocation budget holds
// only in a normal build.

package instrument

import (
	"io"
	"strconv"
	"testing"
)

// expositionAllocs bounds what one rendering allocates, whatever the
// registry holds: the copied rows and their sort, the writer's buffer
// and the cumulative counts.
const expositionAllocs = 4

// TestExpositionAllocations: rendering allocates a fixed few buffers,
// none per line or per series.
func TestExpositionAllocations(t *testing.T) {
	r := goldenRegistry()
	render := func() {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	small := testing.AllocsPerRun(20, render)
	for i := 0; i < 300; i++ {
		route := Labels{"route": "/api/v1/r" + strconv.Itoa(i)}
		r.Histogram("caladrius_latency_seconds", []float64{1, 0.1, 0.005}, route).Observe(float64(i) / 100)
		r.Counter("caladrius_requests_total", route).Add(float64(i))
	}
	large := testing.AllocsPerRun(20, render)
	t.Logf("exposition allocations: %v for 9 series, %v for 609", small, large)
	if small > expositionAllocs || large > expositionAllocs {
		t.Errorf("rendering allocates %v times for 9 series and %v for 609, budget %d", small, large, expositionAllocs)
	}
}

// snapshotAllocs bounds what one JSON snapshot allocates besides the
// series' label maps: the copied rows and their sort, the families,
// the series, their values, counts and buckets, and the cumulative
// counts.
const snapshotAllocs = 8

// labelsSink keeps a cloned label map on the heap, as a snapshot does.
var labelsSink Labels

// TestSnapshotAllocations: a snapshot allocates one label map a
// labelled series and a fixed few arrays, none per value or bucket.
func TestSnapshotAllocations(t *testing.T) {
	r := goldenRegistry()
	labelMap := testing.AllocsPerRun(20, func() { labelsSink = cloneLabels(Labels{"route": "/x"}) })
	for i := 0; i < 300; i++ {
		route := Labels{"route": "/api/v1/r" + strconv.Itoa(i)}
		r.Histogram("caladrius_latency_seconds", []float64{1, 0.1, 0.005}, route).Observe(float64(i) / 100)
		r.Counter("caladrius_requests_total", route).Add(float64(i))
	}
	labelled := 0
	r.Each(func(_, _ string, labels Labels, _ any) {
		if len(labels) > 0 {
			labelled++
		}
	})
	got := testing.AllocsPerRun(20, func() { _ = r.Snapshot() })
	budget := float64(labelled)*labelMap + snapshotAllocs
	t.Logf("snapshot allocations: %v for %d labelled series (%v a label map)", got, labelled, labelMap)
	if got > budget {
		t.Errorf("a snapshot allocates %v times, budget %v (%d labelled series at %v, plus %d)", got, budget, labelled, labelMap, snapshotAllocs)
	}
}
