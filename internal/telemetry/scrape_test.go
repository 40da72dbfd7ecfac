package telemetry

import (
	"context"
	"math"
	"testing"
	"time"

	"caladrius/internal/tsdb"
)

var scrapeT0 = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

func TestScrapeCountersGaugesAndRates(t *testing.T) {
	reg := NewRegistry()
	db := tsdb.New(0)
	s := NewScraper(reg, db, ScrapeOptions{})

	c := reg.Counter("requests_total", Labels{"route": "/x"})
	g := reg.Gauge("in_flight", nil)
	c.Add(10)
	g.Set(3)
	s.ScrapeOnce(scrapeT0)
	c.Add(20)
	g.Set(7)
	s.ScrapeOnce(scrapeT0.Add(10 * time.Second))

	end := scrapeT0.Add(time.Minute)
	series, err := db.Query("requests_total", tsdb.Labels{"route": "/x"}, scrapeT0, end)
	if err != nil || len(series) != 1 || len(series[0].Points) != 2 {
		t.Fatalf("counter series = %+v, err %v", series, err)
	}
	if series[0].Points[0].V != 10 || series[0].Points[1].V != 30 {
		t.Errorf("counter values = %+v", series[0].Points)
	}
	// Rate appears from the second scrape: (30-10)/10s = 2/s.
	rate, err := db.Query("requests_total:rate", nil, scrapeT0, end)
	if err != nil || len(rate) != 1 || len(rate[0].Points) != 1 {
		t.Fatalf("rate series = %+v, err %v", rate, err)
	}
	if got := rate[0].Points[0].V; math.Abs(got-2) > 1e-9 {
		t.Errorf("rate = %g, want 2", got)
	}
	gauge, err := db.Query("in_flight", nil, scrapeT0, end)
	if err != nil || len(gauge[0].Points) != 2 || gauge[0].Points[1].V != 7 {
		t.Fatalf("gauge series = %+v, err %v", gauge, err)
	}
	// Self-metrics registered and counting.
	if got := reg.Counter("caladrius_scrape_runs_total", nil).Value(); got != 2 {
		t.Errorf("scrape runs = %g, want 2", got)
	}
	if got := reg.Counter("caladrius_scrape_samples_total", nil).Value(); got <= 0 {
		t.Errorf("scrape samples = %g, want > 0", got)
	}
}

func TestScrapeCounterReset(t *testing.T) {
	reg := NewRegistry()
	db := tsdb.New(0)
	s := NewScraper(reg, db, ScrapeOptions{})
	c := reg.Counter("events_total", nil)
	c.Add(100)
	s.ScrapeOnce(scrapeT0)
	// Simulate a restart: previous value recorded as 100, new registry
	// value drops below it.
	s.mu.Lock()
	s.prevCounters["events_total{}"] = prevCounter{v: 1000, gen: s.gen}
	s.mu.Unlock()
	c.Add(5)
	s.ScrapeOnce(scrapeT0.Add(10 * time.Second))
	rate, err := db.Query("events_total:rate", nil, scrapeT0, scrapeT0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	// Reset clamps to restart-from-zero: 105/10s.
	if got := rate[0].Points[len(rate[0].Points)-1].V; math.Abs(got-10.5) > 1e-9 {
		t.Errorf("post-reset rate = %g, want 10.5", got)
	}
}

func TestScrapeHistogramBucketsAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	db := tsdb.New(0)
	s := NewScraper(reg, db, ScrapeOptions{})
	h := reg.Histogram("latency_seconds", []float64{0.1, 0.2, 0.4}, Labels{"route": "/x"})
	h.Observe(0.05)
	s.ScrapeOnce(scrapeT0)

	// Buckets, count and sum are appended on every scrape.
	end := scrapeT0.Add(time.Minute)
	buckets, err := db.Query("latency_seconds_bucket", tsdb.Labels{"route": "/x"}, scrapeT0, end)
	if err != nil || len(buckets) != 4 { // 3 bounds + Inf
		t.Fatalf("bucket series = %d, err %v", len(buckets), err)
	}
	if db.SeriesCount("latency_seconds_count") != 1 || db.SeriesCount("latency_seconds_sum") != 1 {
		t.Error("count/sum series missing")
	}
	les := db.LabelValues("latency_seconds_bucket", "le")
	wantLE := map[string]bool{"0.1": true, "0.2": true, "0.4": true, "+Inf": true}
	for _, le := range les {
		if !wantLE[le] {
			t.Errorf("unexpected le %q", le)
		}
	}

	// No quantile on the first scrape (no previous buckets).
	if db.SeriesCount(QuantileSeries("latency_seconds", 0.95)) != 0 {
		t.Error("quantile series appeared before a second scrape")
	}

	// 20 observations in the 0.2–0.4 bucket this interval: p95 lies there.
	for i := 0; i < 20; i++ {
		h.Observe(0.3)
	}
	s.ScrapeOnce(scrapeT0.Add(10 * time.Second))
	p95, err := db.Query(QuantileSeries("latency_seconds", 0.95), nil, scrapeT0, end)
	if err != nil || len(p95) != 1 || len(p95[0].Points) != 1 {
		t.Fatalf("p95 series = %+v, err %v", p95, err)
	}
	if v := p95[0].Points[0].V; v < 0.2 || v > 0.4 {
		t.Errorf("p95 = %g, want within (0.2, 0.4]", v)
	}

	// An idle interval appends no quantile point.
	s.ScrapeOnce(scrapeT0.Add(20 * time.Second))
	p95, _ = db.Query(QuantileSeries("latency_seconds", 0.95), nil, scrapeT0, end)
	if len(p95[0].Points) != 1 {
		t.Errorf("idle interval appended a quantile point: %+v", p95[0].Points)
	}
}

func TestEstimateQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, math.MaxFloat64}
	cum := []float64{10, 30, 40, 40}
	if got := EstimateQuantile(bounds, cum, 0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 = %g, want 1.5", got) // rank 20 → halfway through (1,2]
	}
	if got := EstimateQuantile(bounds, cum, 1.0); got != 4 {
		t.Errorf("p100 = %g, want 4 (rank in +Inf bucket reports last finite bound)", got)
	}
	if got := EstimateQuantile(nil, nil, 0.9); got != 0 {
		t.Errorf("empty = %g, want 0", got)
	}
	if got := EstimateQuantile(bounds, []float64{0, 0, 0, 0}, 0.9); got != 0 {
		t.Errorf("zero-count = %g, want 0", got)
	}
	// A rank exactly on a bucket's count reports that bucket's bound.
	if got := EstimateQuantile([]float64{1, 2}, []float64{5, 10}, 0.5); got != 1 {
		t.Errorf("p50 on a boundary = %g, want 1", got)
	}
}

func TestScraperCollectorsAndHooks(t *testing.T) {
	reg := NewRegistry()
	db := tsdb.New(0)
	s := NewScraper(reg, db, ScrapeOptions{})
	collected, hooked := 0, 0
	var hookT time.Time
	s.AddCollector(func() { collected++ })
	s.AfterScrape(func(t time.Time) { hooked++; hookT = t })
	s.ScrapeOnce(scrapeT0)
	if collected != 1 || hooked != 1 || !hookT.Equal(scrapeT0) {
		t.Errorf("collected=%d hooked=%d at %v", collected, hooked, hookT)
	}
}

func TestRegisterRuntime(t *testing.T) {
	reg := NewRegistry()
	start := scrapeT0
	now := start.Add(90 * time.Second)
	collect := RegisterRuntime(reg, start, func() time.Time { return now })
	collect()
	if got := reg.Gauge("caladrius_go_goroutines", nil).Value(); got < 1 {
		t.Errorf("goroutines = %g, want ≥ 1", got)
	}
	if got := reg.Gauge("caladrius_go_heap_alloc_bytes", nil).Value(); got <= 0 {
		t.Errorf("heap alloc = %g, want > 0", got)
	}
	if got := reg.Gauge("caladrius_process_uptime_seconds", nil).Value(); got != 90 {
		t.Errorf("uptime = %g, want 90", got)
	}
	// A second collect must not double-count GC cycles.
	cycles := reg.Counter("caladrius_go_gc_cycles_total", nil).Value()
	collect()
	after := reg.Counter("caladrius_go_gc_cycles_total", nil).Value()
	if after < cycles {
		t.Errorf("gc cycles went backwards: %g → %g", cycles, after)
	}
}

func TestScraperRunLoop(t *testing.T) {
	reg := NewRegistry()
	db := tsdb.New(0)
	reg.Gauge("g", nil).Set(1)
	s := NewScraper(reg, db, ScrapeOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx, 5*time.Millisecond); close(done) }()
	deadline := time.After(2 * time.Second)
	for db.TotalPoints() == 0 {
		select {
		case <-deadline:
			t.Fatal("run loop never scraped")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("run loop did not stop on cancel")
	}
}
