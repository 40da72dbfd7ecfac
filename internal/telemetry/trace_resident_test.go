//go:build !race

// The race detector allocates shadow memory beside every object, so a
// resident-bytes budget holds only in a normal build.

package telemetry

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// traceResidentBudget is the heap one retained predict-shaped trace may
// hold in a full tracer: its record, its packed spans, its entry in the
// id map and the eviction order, and its share of the string table.
// Measured 267 B (go1.24, linux/amd64); kept as *Span objects with their
// own attribute slices, finished spans held 1,055 B.
const traceResidentBudget = 350

// predictTrace records one trace shaped like a warm sync predict: the
// root with the request's path, mode and tenant, the scheduler's
// queue-wait, the tracker fetch, a calibration-cache hit and the model
// stage. The id, path and tenant are fresh strings, as each request
// parses its own.
func predictTrace(tr *Tracer, i int) {
	root := tr.Start("req-"+strconv.Itoa(i), "performance")
	root.SetAttr("path", strings.Clone("/api/v1/model/topology/word-count/performance"))
	root.SetAttr("mode", "sync")
	root.SetAttr("tenant", "tenant-"+strconv.Itoa(i%4))
	root.Child("queue-wait").End()
	root.Child("tracker.fetch").End()
	calib := root.Child("calibrate")
	calib.SetAttr("cache", "hit")
	calib.End()
	root.StartStage("predict")()
	root.End()
}

// TestTraceResidentBytes fills a default-capacity tracer with
// predict-shaped traces and holds the heap it grew by, after a GC, to
// traceResidentBudget a trace.
func TestTraceResidentBytes(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		// Two collections: one leaves a sync.Pool's victim cache live.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tr := NewTracer(0, fakeClock(20*time.Microsecond))
	for i := 0; i < DefaultMaxTraces; i++ {
		predictTrace(tr, i)
	}
	perTrace := float64(int64(heap()-before)) / DefaultMaxTraces
	if tr.Len() != DefaultMaxTraces {
		t.Fatalf("retained %d traces, want %d", tr.Len(), DefaultMaxTraces)
	}
	runtime.KeepAlive(tr)
	t.Logf("trace store resident bytes/trace: %.0f (budget %d)", perTrace, traceResidentBudget)
	if perTrace > traceResidentBudget {
		t.Errorf("a full tracer holds %.0f bytes a predict trace, budget %d", perTrace, traceResidentBudget)
	}
}
