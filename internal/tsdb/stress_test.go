package tsdb

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAppendQueryDownsample is the race-detector stress for
// the store: writers via Append, SeriesHandle.Append and AppendBatch;
// readers via Query, Downsample, Latest and TotalPoints; plus
// retention tightening and metric drops — all live at once. Iteration
// counts are bounded so the test stays fast under -race; the value is
// the interleaving coverage, not throughput.
func TestConcurrentAppendQueryDownsample(t *testing.T) {
	const (
		writers = 4
		readers = 4
		iters   = 400
	)
	db := New(time.Hour)
	base := time.Unix(1_700_000_000, 0)
	var wg sync.WaitGroup

	// Raw Append writers, one metric per writer plus one shared metric
	// so reads race against series creation and extension.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := "stress_metric_" + strconv.Itoa(w)
			for i := 0; i < iters; i++ {
				ts := base.Add(time.Duration(i) * time.Second)
				db.Handle(own, Labels{"writer": strconv.Itoa(w)}).Append(ts, float64(i))
				db.Handle("stress_shared", Labels{"writer": strconv.Itoa(w)}).Append(ts, float64(i))
			}
		}(w)
	}

	// Handle-based writer: the scraper's hot path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := db.Handle("stress_handle", Labels{"path": "handle"})
		for i := 0; i < iters; i++ {
			h.Append(base.Add(time.Duration(i)*time.Second), float64(i))
		}
	}()

	// Batch writer: one lock round-trip per flush, as ScrapeOnce does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		hs := make([]*SeriesHandle, 8)
		for i := range hs {
			hs[i] = db.Handle("stress_batch", Labels{"series": strconv.Itoa(i)})
		}
		batch := make([]BatchSample, 0, len(hs))
		for i := 0; i < iters/4; i++ {
			ts := base.Add(time.Duration(i) * time.Second)
			batch = batch[:0]
			for _, h := range hs {
				batch = append(batch, BatchSample{H: h, T: ts, V: float64(i)})
			}
			db.AppendBatch(batch)
		}
	}()

	// Readers exercise every query path against the moving store.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			end := base.Add(time.Duration(iters) * time.Second)
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					_, _ = db.Query("stress_shared", nil, base, end)
				case 1:
					_, _ = db.Downsample("stress_shared", nil, base, end, 30*time.Second, AggMax, AggSum)
				case 2:
					_, _ = db.Latest("stress_handle", nil)
				case 3:
					_ = db.TotalPoints()
				case 4:
					_, _ = db.Aggregate("stress_batch", nil, base, end, AggMean)
				}
			}
		}(r)
	}

	// Admin churn: retention tightening forces pruning under the
	// readers' feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			db.SetRetention(time.Hour - time.Duration(i)*time.Second)
			_ = db.Metrics()
			_ = db.SeriesCount("stress_shared")
			_ = db.LabelValues("stress_shared", "writer")
		}
	}()

	wg.Wait()

	// Sanity after the storm: surviving metrics remain queryable and
	// internally consistent.
	if got := db.TotalPoints(); got == 0 {
		t.Fatal("store empty after concurrent writes")
	}
	series, err := db.Query("stress_shared", nil, base, base.Add(time.Duration(iters)*time.Second))
	if err != nil {
		t.Fatalf("post-stress query: %v", err)
	}
	if len(series) != writers {
		t.Fatalf("stress_shared has %d series, want %d", len(series), writers)
	}
	for _, s := range series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].T.Before(s.Points[i-1].T) {
				t.Fatalf("series %v points out of order at %d", s.Labels, i)
			}
		}
	}
}

// TestAppendBatchLazyHandleBind covers AppendBatch resolving handles
// whose series do not exist yet, while another writer binds fresh
// handles to the same series.
func TestAppendBatchLazyHandleBind(t *testing.T) {
	db := New(time.Hour)
	base := time.Unix(1_700_000_000, 0)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := db.Handle("lazy", Labels{"i": strconv.Itoa(i % 4)})
				db.AppendBatch([]BatchSample{{H: h, T: base.Add(time.Duration(i) * time.Second), V: 1}})
			}
		}()
	}
	wg.Wait()
	if n := db.SeriesCount("lazy"); n != 4 {
		t.Fatalf("lazy binds made %d series, want 4", n)
	}
}
