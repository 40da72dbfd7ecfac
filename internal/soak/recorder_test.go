package soak

import (
	"sync"
	"testing"
	"time"
)

func TestRecorderStatusClassification(t *testing.T) {
	r := NewRecorder()
	r.Start(time.Unix(100, 0))
	r.Record(OpPredict, 200)
	r.Record(OpPredict, 201)
	r.Record(OpPredict, 400)
	r.Record(OpPredict, 429)
	r.Record(OpPredict, 500)
	r.Record(OpPredict, 503)
	r.Record(OpPredict, 0)   // transport failure
	r.Record(OpPredict, 302) // unexpected class
	r.Finish(time.Unix(102, 0))

	rep := r.Report()
	st := rep.Ops[OpPredict]
	if st.Count != 8 {
		t.Fatalf("count = %d, want 8", st.Count)
	}
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"2xx", st.Status2xx, 2},
		{"4xx", st.Status4xx, 2},
		{"shed 429", st.Shed429, 1},
		{"5xx", st.Status5xx, 2},
		{"unavailable 503", st.Unavail503, 1},
		{"transport", st.Transport, 1},
		{"unaccounted", st.Other, 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if rep.DurationSeconds != 2 {
		t.Errorf("duration = %g, want 2", rep.DurationSeconds)
	}
	if rep.Totals.Count != 8 || rep.Totals.Shed429 != 1 || rep.Totals.Other != 1 {
		t.Errorf("totals not aggregated: %+v", rep.Totals)
	}
}

func TestRecorderEmpty(t *testing.T) {
	rep := NewRecorder().Report()
	if rep.Totals != (OpReport{}) || rep.DurationSeconds != 0 {
		t.Fatalf("empty recorder report not zeroed: %+v", rep)
	}
	if len(rep.Ops) != 0 {
		t.Fatalf("empty recorder has ops: %v", rep.Ops)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op := DefaultMix[w%len(DefaultMix)].Op
			for i := 0; i < per; i++ {
				r.Record(op, 200)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Report().Totals.Count; got != workers*per {
		t.Fatalf("concurrent records lost: %d of %d", got, workers*per)
	}
}
