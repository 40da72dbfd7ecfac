//go:build !race

// The race detector's instrumentation allocates, so an allocation count
// is a budget only in a normal build.

package telemetry

import (
	"testing"
	"time"

	"caladrius/internal/tsdb"
)

// warmScrapeAllocs is what one warm ScrapeOnce of benchRegistry (a few
// hundred samples) costs in heap allocations: the registry walk's
// sorted name and signature lists, one cumulative-bucket read per
// histogram, and what the store allocates as its chunks fill. It is
// the measured count (go1.24, linux/amd64); a change that spends
// allocations per series or per sample on the scrape path raises it
// here, in review.
const warmScrapeAllocs = 33

// TestWarmScrapeAllocationBudget pins warmScrapeAllocs once every
// series' scrape state is interned.
func TestWarmScrapeAllocationBudget(t *testing.T) {
	s := NewScraper(benchRegistry(t), tsdb.New(15*time.Minute), ScrapeOptions{})
	at := time.Unix(1_700_000_000, 0).UTC()
	scrape := func() {
		at = at.Add(5 * time.Second)
		s.ScrapeOnce(at)
	}
	scrape()
	scrape()
	if got := testing.AllocsPerRun(500, scrape); got != warmScrapeAllocs {
		t.Errorf("warm scrape allocates %v per scrape, budget %d", got, warmScrapeAllocs)
	}
}
