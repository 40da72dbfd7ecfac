//go:build !race

// The race detector's instrumentation allocates, so an allocation count
// is a budget only in a normal build.

package core

import "testing"

// TestModelRunAllocationBudget pins what one word-count model run
// allocates: Predict's rows, saturation points, paths and their
// components, and SuggestParallelism's map. A change that spends
// allocations here raises a budget, in review; one that saves some
// lowers it.
func TestModelRunAllocationBudget(t *testing.T) {
	tm := wordCountModel(t)
	predict := func() {
		if _, err := tm.Predict(map[string]int{"splitter": 4}, 30e6); err != nil {
			t.Fatal(err)
		}
	}
	suggest := func() {
		if _, err := tm.SuggestParallelism(30e6, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		run    func()
		budget float64
	}{{"Predict", predict, 7}, {"SuggestParallelism", suggest, 2}} {
		if got := testing.AllocsPerRun(100, c.run); got != c.budget {
			t.Errorf("%s allocates %v per run, budget %v", c.name, got, c.budget)
		}
	}
}
