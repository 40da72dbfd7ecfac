//go:build !race

// The race detector allocates shadow memory beside every object, so a
// resident-bytes budget holds only in a normal build.

package heron

import (
	"runtime"
	"testing"
)

// warmUpBytesPerSample is the resident heap budget of the daemon's
// warm-up store. Most of its series are constant (fail and restart
// counts, backpressure at 0 or 60,000 ms) and all tick once a minute,
// so their chunks encode to 1.31 bytes a sample, 1,239 of the 1,860 as
// decimal; with chunk headers, size-class rounding, canonical keys and
// index it measured 1.94–1.98 over five runs (go1.24, linux/amd64), and
// 2.19–2.38 while each series also kept a label map. The budget keeps
// a fifth over the measurement.
const warmUpBytesPerSample = 2.4

// TestWarmUpResidentBytesPerSample measures heap growth after a GC,
// across the warm-up simulation, divided by the samples it stored.
func TestWarmUpResidentBytesPerSample(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	db := warmUpStore(t)
	perSample := float64(int64(heap()-before)) / float64(db.TotalPoints())
	runtime.KeepAlive(db)
	t.Logf("resident bytes/sample, warm-up store: %.2f (budget %g)", perSample, warmUpBytesPerSample)
	if perSample > warmUpBytesPerSample {
		t.Errorf("warm-up store holds %.2f bytes/sample, budget %g", perSample, warmUpBytesPerSample)
	}
}
