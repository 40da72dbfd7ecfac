package telemetry

import (
	"runtime"
	"time"

	"caladrius/internal/instrument"
)

// RegisterRuntime registers process-level gauges (goroutines, heap,
// GC, uptime) on reg and returns the collector that refreshes them —
// pass it to Scraper.AddCollector so every scrape records a fresh
// runtime sample. start anchors the uptime gauge; now defaults to
// time.Now.
func RegisterRuntime(reg *instrument.Registry, start time.Time, now func() time.Time) func() {
	if now == nil {
		now = time.Now
	}
	reg.SetHelp("caladrius_go_goroutines", "Goroutines currently running.")
	reg.SetHelp("caladrius_go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	reg.SetHelp("caladrius_go_heap_objects", "Allocated heap objects.")
	reg.SetHelp("caladrius_go_gc_cycles_total", "Completed GC cycles.")
	reg.SetHelp("caladrius_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
	reg.SetHelp("caladrius_process_uptime_seconds", "Seconds since the process registered its runtime collector.")
	goroutines := reg.Gauge("caladrius_go_goroutines", nil)
	heapAlloc := reg.Gauge("caladrius_go_heap_alloc_bytes", nil)
	heapObjects := reg.Gauge("caladrius_go_heap_objects", nil)
	gcCycles := reg.Counter("caladrius_go_gc_cycles_total", nil)
	gcPause := reg.Counter("caladrius_go_gc_pause_seconds_total", nil)
	uptime := reg.Gauge("caladrius_process_uptime_seconds", nil)
	var lastGC uint32
	var lastPauseNs uint64
	return func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapObjects.Set(float64(ms.HeapObjects))
		gcCycles.Add(float64(ms.NumGC - lastGC))
		lastGC = ms.NumGC
		gcPause.Add(float64(ms.PauseTotalNs-lastPauseNs) / 1e9)
		lastPauseNs = ms.PauseTotalNs
		uptime.Set(now().Sub(start).Seconds())
	}
}
