package profiler

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCaptureQueryBaseline hammers capture, every query
// surface, and baseline swaps from concurrent goroutines; run under
// -race (scripts/verify.sh does) it proves the Profiler's locking.
func TestConcurrentCaptureQueryBaseline(t *testing.T) {
	clock := newFakeClock()
	p := newTestProfiler(t, clock, func(kind Kind) ([]byte, error) {
		// Vary the profile so folds keep inserting new functions.
		return cpuProfileBytes(t, false, map[string]int64{
			"main;steady": 100,
			fmt.Sprintf("main;f%d", time.Now().UnixNano()%97): 50,
		}), nil
	}, nil)

	const workers = 4
	const iters = 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				if err := p.CaptureOnce(); err != nil {
					t.Errorf("capture: %v", err)
					return
				}
				clock.Advance(epoch / 7)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				for _, kind := range Kinds {
					p.Top(kind, 5)
					p.Flame(kind, 5)
					p.DiffKind(kind, 5)
				}
				p.Status()
				if _, err := p.DiffArtifact(); err != nil {
					t.Errorf("artifact: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < iters/2; i++ {
			p.SetBaseline()
		}
	}()
	close(start)
	wg.Wait()

	st := p.Status()
	if st.CaptureErrors != 0 {
		t.Fatalf("capture errors under concurrency: %d (%v)", st.CaptureErrors, st.LastErrors)
	}
	if st.Baseline == nil {
		t.Fatal("no baseline after concurrent baseline swaps")
	}
}
