package instrument

import (
	"math"
	"testing"
)

// TestHistogramBucketBoundaries pins the "le" semantics: an
// observation equal to an upper bound lands in that bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 5}, nil)
	for _, v := range []float64{0.5, 1, 1.0001, 2, 5, 5.0001, 100} {
		h.Observe(v)
	}
	cum := h.AppendCumulative(nil)
	want := []uint64{2, 4, 5, 7} // ≤1: {0.5,1}; ≤2: +{1.0001,2}; ≤5: +{5}; +Inf: +{5.0001,100}
	if len(cum) != len(want) {
		t.Fatalf("cumulative buckets = %v", cum)
	}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 114.5 || got > 114.6 {
		t.Errorf("sum = %g", got)
	}
	// Unsorted/duplicate/+Inf bounds are normalised at registration.
	h2 := r.Histogram("lat2", []float64{5, 1, 1, 2, math.Inf(1)}, nil)
	if len(h2.bounds) != 3 || h2.bounds[0] != 1 || h2.bounds[2] != 5 {
		t.Errorf("normalised bounds = %v", h2.bounds)
	}
}
