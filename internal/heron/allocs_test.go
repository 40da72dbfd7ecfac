//go:build !race

// The race detector allocates beside the code it instruments, so an
// allocation count holds only in a normal build.

package heron

import (
	"testing"
	"time"
)

// TestRunDoesNotAllocate holds a warm Run(time.Minute) to no
// allocation, on noisy simulations below SP, whose slack windows are
// committed from the memo (the row named stepped predates that), and on
// a noiseless one, which replays its steady state. Warm means
// past the first 20 minutes, in which replay fills its ring of boundary
// states, the slack record and memo are made, and the store grows each
// series' first chunk; the store allocates again only when it seals a
// series' 120-sample chunk, after minute 111, the last one measured.
func TestRunDoesNotAllocate(t *testing.T) {
	for _, c := range []struct {
		name string
		opts WordCountOptions
	}{
		{"stepped", WordCountOptions{RatePerMinute: 8e6, ServiceNoiseStd: 0.015, NoiseSeed: 1}},
		{"replayed", WordCountOptions{RatePerMinute: 8e6}},
		{"noisy-below-sp", WordCountOptions{SplitterP: 2, CounterP: 3, RatePerMinute: 18e6, ServiceNoiseStd: 0.05, NoiseSeed: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim, err := NewWordCount(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(20 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if replaying := sim.replay.next != nil; replaying != (c.opts.ServiceNoiseStd == 0) {
				t.Fatalf("replay armed: %t, want %t", replaying, c.opts.ServiceNoiseStd == 0)
			}
			belowSP := c.opts.RatePerMinute < SplitterServiceRate*60*float64(max(c.opts.SplitterP, 1))
			if slack, want := sim.slack.memo != nil, c.opts.ServiceNoiseStd > 0 && belowSP; slack != want {
				t.Fatalf("slack memo: %t, want %t", slack, want)
			}
			allocs := testing.AllocsPerRun(90, func() {
				if err := sim.Run(time.Minute); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Run(time.Minute) allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
