package telemetry

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"caladrius/internal/tsdb"
)

// TestScrapeUnderRegistryChurn is the race stress for the scrape path:
// ScrapeOnce (snapshot + rate derivation + handle-cached batch append)
// racing against series registration/unregistration churn, live
// counter/histogram traffic, and TSDB readers on the history store.
// The handle cache's generation sweep only runs inside ScrapeOnce, so
// churned-away series must be evicted without tripping the detector.
func TestScrapeUnderRegistryChurn(t *testing.T) {
	const iters = 150
	reg := NewRegistry()
	db := tsdb.New(time.Hour)
	base := time.Unix(1_700_000_000, 0)
	s := NewScraper(reg, db, ScrapeOptions{})

	// Stable instruments so every scrape has work to do.
	stable := reg.Counter("stress_requests_total", Labels{"route": "stable"})
	hist := reg.Histogram("stress_latency_seconds", nil, Labels{"route": "stable"})

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scrape loop: one scrape per fake second.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.ScrapeOnce(base.Add(time.Duration(i) * time.Second))
		}
		close(stop)
	}()

	// Registration churn: short-lived tenant series appear and vanish
	// between scrapes — the path that grows and sweeps the handle cache.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			lbl := Labels{"tenant": "t" + strconv.Itoa(i%8)}
			reg.Counter("stress_churn_total", lbl).Add(1)
			reg.Gauge("stress_churn_gauge", lbl).Set(float64(i))
			if i%3 == 0 {
				reg.Unregister("stress_churn_total", lbl)
				reg.Unregister("stress_churn_gauge", lbl)
			}
			i++
		}
	}()

	// Instrument traffic: counters and histogram observations while
	// snapshots are being taken.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				stable.Add(1)
				hist.Observe(float64(i%100) / 1000)
				i++
			}
		}(w)
	}

	// History readers: the concurrent-scrape+query contention path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		end := base.Add(iters * time.Second)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = db.Query("stress_requests_total", nil, base, end)
			_, _ = db.Downsample("stress_latency_seconds_count", nil, base, end, 10*time.Second, tsdb.AggMax, tsdb.AggSum)
			_ = db.TotalPoints()
		}
	}()

	wg.Wait()

	// The stable counter must have a contiguous scraped history.
	series, err := db.Query("stress_requests_total", tsdb.Labels{"route": "stable"}, base, base.Add(iters*time.Second))
	if err != nil || len(series) == 0 {
		t.Fatalf("stable counter missing from history after churn: %v", err)
	}
	if got := len(series[0].Points); got < iters/2 {
		t.Fatalf("stable counter has %d scraped points, want >= %d", got, iters/2)
	}
}
