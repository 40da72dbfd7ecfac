package usage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"caladrius/internal/instrument"
)

// TestAccountantConcurrentChurn hammers the accountant from many
// goroutines with far more principals than capacity while snapshots
// run concurrently — the suite scripts/verify.sh races. Afterwards the
// cap and the conservation invariant must both hold exactly.
func TestAccountantConcurrentChurn(t *testing.T) {
	reg := instrument.NewRegistry()
	a := New(Options{Capacity: 16, Window: 15 * time.Minute, Now: fixedNow(usageT0), Registry: reg})
	const (
		workers = 8
		perW    = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				tenant := fmt.Sprintf("t%d-%d", w, i%40)
				a.Begin(tenant, "wc")
				a.RecordRun(tenant, "wc", time.Microsecond, time.Microsecond, 8, 0)
				a.Finish(tenant, "wc", 200+(i%2)*300, time.Microsecond)
			}
		}(w)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.Snapshot()
				a.Len()
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := a.Len(); got > 16 {
		t.Errorf("live principals = %d, want ≤ 16", got)
	}
	var sum Totals
	var inFlight int64
	for _, p := range a.Snapshot() {
		sum.add(p.Totals)
		inFlight += p.InFlight
	}
	const total = workers * perW
	if sum.Requests != total || sum.Runs != total {
		t.Errorf("conserved requests/runs = %d/%d, want %d", sum.Requests, sum.Runs, total)
	}
	if sum.AllocBytes != total*8 {
		t.Errorf("conserved allocs = %d, want %d", sum.AllocBytes, total*8)
	}
	if inFlight != 0 {
		t.Errorf("net in-flight = %d, want 0", inFlight)
	}
}
