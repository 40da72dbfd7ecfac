package telemetry

import (
	"fmt"
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/tsdb"
)

// benchRegistry builds a registry shaped like a live daemon's: per-route
// HTTP instruments, scheduler gauges/counters, usage accountant series —
// a few hundred exported series once histogram buckets fan out.
func benchRegistry(tb testing.TB) *instrument.Registry {
	tb.Helper()
	reg := instrument.NewRegistry()
	routes := []string{
		"model_topology_traffic", "model_topology_performance",
		"model_topology_suggest", "history_query_range", "audit_runs",
		"usage_tenants", "status", "healthz", "metrics", "slo_status",
	}
	for _, r := range routes {
		for _, class := range []string{"2xx", "4xx", "5xx"} {
			reg.Counter("caladrius_http_requests_total", instrument.Labels{"route": r, "class": class}).Add(100)
		}
		h := reg.Histogram("caladrius_http_request_duration_seconds", instrument.DefLatencyBuckets, instrument.Labels{"route": r})
		for i := 0; i < 64; i++ {
			h.Observe(float64(i%13) * 0.003)
		}
		reg.Gauge("caladrius_http_inflight_requests", instrument.Labels{"route": r}).Set(2)
	}
	for i := 0; i < 16; i++ {
		t := fmt.Sprintf("tenant-%d", i)
		reg.Counter("caladrius_usage_requests_total", instrument.Labels{"tenant": t}).Add(50)
		reg.Counter("caladrius_sched_sheds_total", instrument.Labels{"tenant": t}).Add(3)
	}
	reg.Gauge("caladrius_sched_queue_depth", nil).Set(4)
	reg.Gauge("caladrius_sched_workers_busy", nil).Set(2)
	wait := reg.Histogram("caladrius_sched_queue_wait_seconds", instrument.DefLatencyBuckets, nil)
	for i := 0; i < 64; i++ {
		wait.Observe(float64(i%7) * 0.001)
	}
	return reg
}

// BenchmarkScrapeWithConcurrentReads measures ScrapeOnce while a reader
// continuously issues Query+Downsample against the same DB — the
// scrape-vs-query_range interleaving a loaded daemon sees. Lower ns/op
// here means shorter writer-lock holds and less read starvation. It
// explains the writer side of the benchmark's
// tsdb.downsample_under_append_us, which times only the reader; the
// scrape alone is telemetry.scrape_ms and telemetry.scrape_allocs.
func BenchmarkScrapeWithConcurrentReads(b *testing.B) {
	reg := benchRegistry(b)
	db := tsdb.New(15 * time.Minute)
	s := NewScraper(reg, db, ScrapeOptions{})
	base := time.Unix(1_700_000_000, 0).UTC()
	s.ScrapeOnce(base)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = db.Query("caladrius_http_requests_total", nil, base, base.Add(time.Duration(b.N+2)*time.Second))
			_, _ = db.Downsample("caladrius_http_request_duration_seconds:p95", nil,
				base, base.Add(time.Duration(b.N+2)*time.Second), 10*time.Second, tsdb.AggMax, tsdb.AggMax)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScrapeOnce(base.Add(time.Duration(i+1) * time.Second))
	}
	b.StopTimer()
	close(stop)
	<-done
}
