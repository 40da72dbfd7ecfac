//go:build !race

// The race detector allocates shadow memory beside every object, so a
// bytes-allocated budget holds only in a normal build.

package profiler

import (
	"runtime"
	"testing"
)

// Bytes one warm production capture round allocates, measured on
// go1.24, linux/amd64, over a dozen fresh test processes. Each budget
// keeps a fifth over the largest measurement, the headroom the TSDB's
// resident-bytes budgets keep.
const (
	// A whole CaptureOnce: 2.45–2.49 MB, nearly all of it the CPU
	// window's pprof buffer and its flate writer; the runtime hands CPU
	// samples out only as gzipped pprof.
	captureRoundBytes = 2_990_000
	// The heap, goroutine and mutex snapshots folded from the runtime's
	// records: 4.0–6.0 kB, varying with the heap records and goroutines
	// the process holds (the runtime's goroutine records and stack
	// buffers, and one runtime.Frames per stack symbolized).
	snapshotKindsBytes = 7_200
)

// allocatedBytes is the heap bytes the process allocated while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCaptureRoundAllocationBudget pins the bytes a warm production
// capture round allocates, and separately those of its heap, goroutine
// and mutex snapshots.
func TestCaptureRoundAllocationBudget(t *testing.T) {
	p := newTestProfiler(t, newFakeClock(), nil, nil)
	snapshots := func() {
		for _, kind := range []Kind{KindHeap, KindGoroutine, KindMutex} {
			if _, err := p.capture(kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.CaptureOnce(); err != nil { // grows the record buffers and the window's maps
		t.Fatal(err)
	}
	round := allocatedBytes(func() {
		if err := p.CaptureOnce(); err != nil {
			t.Fatal(err)
		}
	})
	snapshots()
	snap := allocatedBytes(snapshots)
	t.Logf("capture round bytes: %d (budget %d), heap+goroutine+mutex %d (budget %d)",
		round, captureRoundBytes, snap, snapshotKindsBytes)
	if round > captureRoundBytes {
		t.Errorf("a capture round allocates %d bytes, budget %d", round, captureRoundBytes)
	}
	if snap > snapshotKindsBytes {
		t.Errorf("the heap, goroutine and mutex snapshots allocate %d bytes, budget %d", snap, snapshotKindsBytes)
	}
}
