//go:build !race

// The race detector's instrumentation allocates, so an allocation count
// is a budget only in a normal build.

package metrics

import (
	"runtime"
	"testing"
	"time"

	"caladrius/internal/heron"
)

// sourceRateAllocs and sourceRateBytes are what SourceRate over a day
// of one-minute windows of one spout allocates: the store's rollup, whose
// 1,440 points (46,080 bytes) become the totals, and its selector. Measured
// 14 allocations and 55,824 bytes (go1.24, linux/amd64); summing through
// an 88-byte window a point took 16 and 236,048.
const (
	sourceRateAllocs = 14
	sourceRateBytes  = 64 << 10
)

// TestSourceRateAllocations pins a 1,440-minute SourceRate, the
// traffic forecast's history read, at sourceRateAllocs.
func TestSourceRateAllocations(t *testing.T) {
	s := runSim(t, heron.WordCountOptions{SplitterP: 2, CounterP: 3, RatePerMinute: 30e6}, 1440)
	p := provider(t, s)
	start, end := s.Start(), s.Start().Add(1440*time.Minute)
	call := func() {
		pts, err := p.SourceRate("word-count", []string{"spout"}, start, end)
		if err != nil || len(pts) != 1440 {
			t.Fatalf("SourceRate: %d points, %v", len(pts), err)
		}
	}
	got := testing.AllocsPerRun(10, call)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	call()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("SourceRate over 1,440 minutes: %v allocations, %d bytes", got, bytes)
	if got > sourceRateAllocs {
		t.Errorf("SourceRate over 1,440 minutes allocates %v times, budget %d", got, sourceRateAllocs)
	}
	if bytes > sourceRateBytes {
		t.Errorf("SourceRate over 1,440 minutes allocates %d bytes, budget %d", bytes, sourceRateBytes)
	}
}
