package telemetry

import (
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/tsdb"
)

// Scrape-gap behaviour: when the scraper misses intervals the evaluator
// must report no_data without flapping the firing/resolved lifecycle —
// a dead scraper is not a recovery, and data returning mid-incident is
// not a fresh incident. Each case is a per-minute timeline where nil
// means "no sample landed this minute" (the rule's window sees nothing).
func TestSLOScrapeGapsDoNotFlap(t *testing.T) {
	v := func(x float64) *float64 { return &x }
	cases := []struct {
		name string
		// timeline[i] is the sample scraped during minute i, nil = gap.
		timeline []*float64
		// wantStates[i] is the state evaluated at the end of minute i.
		wantStates   []AlertState
		wantFiring   float64 // total firing transitions
		wantResolved float64 // total resolved transitions
	}{
		{
			name:       "gap before any data is no_data, not an incident",
			timeline:   []*float64{nil, nil, v(20)},
			wantStates: []AlertState{StateNoData, StateNoData, StateOK},
		},
		{
			name:       "gap while firing keeps the incident open",
			timeline:   []*float64{v(80), nil, v(80)},
			wantStates: []AlertState{StateFiring, StateNoData, StateFiring},
			wantFiring: 1,
		},
		{
			name:       "alternating gaps during one incident never flap",
			timeline:   []*float64{v(80), nil, v(80), nil, nil, v(80)},
			wantStates: []AlertState{StateFiring, StateNoData, StateFiring, StateNoData, StateNoData, StateFiring},
			wantFiring: 1,
		},
		{
			name:         "recovery after a gap resolves exactly once",
			timeline:     []*float64{v(80), nil, v(20)},
			wantStates:   []AlertState{StateFiring, StateNoData, StateOK},
			wantFiring:   1,
			wantResolved: 1,
		},
		{
			name:         "gap between two real incidents counts both",
			timeline:     []*float64{v(80), v(20), nil, v(80)},
			wantStates:   []AlertState{StateFiring, StateOK, StateNoData, StateFiring},
			wantFiring:   2,
			wantResolved: 1,
		},
		{
			name:         "incident entirely swallowed by a gap is invisible",
			timeline:     []*float64{v(20), nil, nil, v(20)},
			wantStates:   []AlertState{StateOK, StateNoData, StateNoData, StateOK},
			wantFiring:   0,
			wantResolved: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := sloT0
			rule := Rule{Name: "hot", Metric: "temp", Agg: tsdb.AggMean, Window: time.Minute, Op: OpGreater, Threshold: 50}
			s, db, reg := sloFixture(t, []Rule{rule}, &now)
			var firedAt *time.Time
			for i, sample := range tc.timeline {
				if sample != nil {
					db.Handle("temp", nil).Append(sloT0.Add(time.Duration(i)*time.Minute+30*time.Second), *sample)
				}
				now = sloT0.Add(time.Duration(i+1) * time.Minute)
				a := s.Evaluate()[0]
				if a.State != tc.wantStates[i] {
					t.Fatalf("minute %d: state = %s, want %s", i, a.State, tc.wantStates[i])
				}
				// A gap mid-incident must preserve the original Since.
				switch a.State {
				case StateFiring, StateNoData:
					if firedAt != nil && a.Since != nil && !a.Since.Equal(*firedAt) {
						t.Errorf("minute %d: Since moved from %s to %s across a gap", i, *firedAt, *a.Since)
					}
					if a.State == StateFiring {
						firedAt = a.Since
					}
				case StateOK:
					firedAt = nil
					if a.Since != nil {
						t.Errorf("minute %d: resolved alert still carries Since", i)
					}
				}
			}
			got := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "hot", "to": "firing"}).Value()
			if got != tc.wantFiring {
				t.Errorf("firing transitions = %g, want %g", got, tc.wantFiring)
			}
			got = reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "hot", "to": "resolved"}).Value()
			if got != tc.wantResolved {
				t.Errorf("resolved transitions = %g, want %g", got, tc.wantResolved)
			}
		})
	}
}

// A ratio rule's denominator going quiet (no traffic scraped) is a gap,
// not a recovery: the error-rate incident stays open until real traffic
// shows a healthy ratio.
func TestSLORatioIdleDenominatorIsGap(t *testing.T) {
	now := sloT0.Add(time.Minute)
	rule := Rule{
		Name: "errs", Metric: "reqs", Selector: tsdb.Labels{"class": "5xx"},
		Ratio: true, Window: time.Minute, Op: OpGreater, Threshold: 0.05,
	}
	s, db, reg := sloFixture(t, []Rule{rule}, &now)
	all, bad := tsdb.Labels{"class": "2xx"}, tsdb.Labels{"class": "5xx"}

	// Minute 0: 100 requests, 10 of them 5xx → 10% error rate, firing.
	db.Handle("reqs", all).Append(sloT0.Add(10*time.Second), 0)
	db.Handle("reqs", bad).Append(sloT0.Add(10*time.Second), 0)
	db.Handle("reqs", all).Append(sloT0.Add(50*time.Second), 90)
	db.Handle("reqs", bad).Append(sloT0.Add(50*time.Second), 10)
	if a := s.Evaluate()[0]; a.State != StateFiring {
		t.Fatalf("error-rate alert = %+v, want firing", a)
	}

	// Minute 1: scraper down, no samples at all → no_data, not resolved.
	now = sloT0.Add(2 * time.Minute)
	if a := s.Evaluate()[0]; a.State != StateNoData {
		t.Fatalf("idle-window alert = %+v, want no_data", a)
	}
	if got := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "errs", "to": "resolved"}).Value(); got != 0 {
		t.Errorf("resolved transitions during gap = %g, want 0", got)
	}

	// Minute 2: traffic returns healthy → resolved once.
	now = sloT0.Add(3 * time.Minute)
	db.Handle("reqs", all).Append(sloT0.Add(130*time.Second), 100)
	db.Handle("reqs", all).Append(sloT0.Add(170*time.Second), 200)
	db.Handle("reqs", bad).Append(sloT0.Add(130*time.Second), 10)
	db.Handle("reqs", bad).Append(sloT0.Add(170*time.Second), 10)
	if a := s.Evaluate()[0]; a.State != StateOK {
		t.Fatalf("recovered alert = %+v, want ok", a)
	}
	if got := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "errs", "to": "resolved"}).Value(); got != 1 {
		t.Errorf("resolved transitions = %g, want 1", got)
	}
}
