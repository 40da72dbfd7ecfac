package telemetry

import (
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/tsdb"
)

var sloT0 = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

func sloFixture(t *testing.T, rules []Rule, now *time.Time) (*SLO, *tsdb.DB, *instrument.Registry) {
	t.Helper()
	db := tsdb.New(0)
	reg := instrument.NewRegistry()
	s, err := NewSLO(db, reg, func() time.Time { return *now }, rules)
	if err != nil {
		t.Fatal(err)
	}
	return s, db, reg
}

func TestSLOThresholdFiresAndResolves(t *testing.T) {
	now := sloT0.Add(time.Minute)
	rule := Rule{Name: "hot", Metric: "temp", Agg: tsdb.AggMean, Window: time.Minute, Op: OpGreater, Threshold: 50}
	s, db, reg := sloFixture(t, []Rule{rule}, &now)

	// No data yet.
	alerts := s.Evaluate()
	if len(alerts) != 1 || alerts[0].State != StateNoData || alerts[0].Value != nil {
		t.Fatalf("empty-window alert = %+v", alerts[0])
	}

	// Mean 80 over the window → firing.
	db.Handle("temp", nil).Append(sloT0.Add(30*time.Second), 80)
	alerts = s.Evaluate()
	a := alerts[0]
	if a.State != StateFiring || a.Value == nil || *a.Value != 80 || a.Since == nil {
		t.Fatalf("breach alert = %+v", a)
	}
	firedAt := *a.Since
	if got := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "hot", "to": "firing"}).Value(); got != 1 {
		t.Errorf("firing transitions = %g, want 1", got)
	}

	// Still breaching: no second transition, Since unchanged.
	alerts = s.Evaluate()
	if alerts[0].State != StateFiring || !alerts[0].Since.Equal(firedAt) {
		t.Errorf("sustained alert = %+v", alerts[0])
	}
	if got := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "hot", "to": "firing"}).Value(); got != 1 {
		t.Errorf("firing transitions after sustain = %g, want 1", got)
	}

	// Window slides past the hot sample and onto a cool one → resolved.
	now = sloT0.Add(3 * time.Minute)
	db.Handle("temp", nil).Append(sloT0.Add(150*time.Second), 20)
	alerts = s.Evaluate()
	if alerts[0].State != StateOK || alerts[0].Since != nil {
		t.Errorf("resolved alert = %+v", alerts[0])
	}
	if got := reg.Counter("caladrius_slo_transitions_total", instrument.Labels{"rule": "hot", "to": "resolved"}).Value(); got != 1 {
		t.Errorf("resolved transitions = %g, want 1", got)
	}
}

func TestSLORatioMode(t *testing.T) {
	now := sloT0.Add(time.Minute)
	rule := Rule{
		Name: "errors", Metric: "requests_total",
		Selector: tsdb.Labels{"class": "5xx"}, Ratio: true,
		Window: time.Minute, Op: OpGreater, Threshold: 0.05,
	}
	s, db, _ := sloFixture(t, []Rule{rule}, &now)

	// 100 total requests, 10 of them 5xx → ratio 0.1 > 0.05.
	db.Handle("requests_total", tsdb.Labels{"class": "2xx"}).Append(sloT0, 1000)
	db.Handle("requests_total", tsdb.Labels{"class": "5xx"}).Append(sloT0, 40)
	db.Handle("requests_total", tsdb.Labels{"class": "2xx"}).Append(sloT0.Add(30*time.Second), 1090)
	db.Handle("requests_total", tsdb.Labels{"class": "5xx"}).Append(sloT0.Add(30*time.Second), 50)
	alerts := s.Evaluate()
	a := alerts[0]
	if a.State != StateFiring || a.Value == nil || *a.Value != 0.1 {
		t.Fatalf("ratio alert = %+v", a)
	}

	// A single sample per series cannot measure increase → no data.
	now = sloT0.Add(10 * time.Minute)
	db.Handle("requests_total", tsdb.Labels{"class": "2xx"}).Append(sloT0.Add(9*time.Minute+30*time.Second), 2000)
	db.Handle("requests_total", tsdb.Labels{"class": "5xx"}).Append(sloT0.Add(9*time.Minute+30*time.Second), 50)
	alerts = s.Evaluate()
	if alerts[0].State != StateNoData {
		t.Errorf("single-sample ratio alert = %+v", alerts[0])
	}
}

func TestSLOOpLess(t *testing.T) {
	now := sloT0.Add(time.Minute)
	rule := Rule{Name: "starved", Metric: "qps", Agg: tsdb.AggMean, Window: time.Minute, Op: OpLess, Threshold: 5}
	s, db, _ := sloFixture(t, []Rule{rule}, &now)
	db.Handle("qps", nil).Append(sloT0.Add(30*time.Second), 1)
	if a := s.Evaluate()[0]; a.State != StateFiring {
		t.Errorf("op-less alert = %+v", a)
	}
}

func TestSLONoDataKeepsFiringTimestamp(t *testing.T) {
	now := sloT0.Add(time.Minute)
	rule := Rule{Name: "hot", Metric: "temp", Window: time.Minute, Threshold: 50}
	s, db, _ := sloFixture(t, []Rule{rule}, &now)
	db.Handle("temp", nil).Append(sloT0.Add(30*time.Second), 80)
	fired := s.Evaluate()[0]
	if fired.State != StateFiring {
		t.Fatalf("alert = %+v", fired)
	}
	// Scraper dies: window empties but the alert reports no_data with
	// the original firing timestamp, not a silent resolve.
	now = sloT0.Add(10 * time.Minute)
	a := s.Evaluate()[0]
	if a.State != StateNoData || a.Since == nil || !a.Since.Equal(*fired.Since) {
		t.Errorf("no-data alert = %+v", a)
	}
}

func TestSLOValidation(t *testing.T) {
	db := tsdb.New(0)
	reg := instrument.NewRegistry()
	bad := [][]Rule{
		{{Name: "", Metric: "m"}},                            // missing name
		{{Name: "a", Metric: ""}},                            // missing metric
		{{Name: "a", Metric: "m"}, {Name: "a", Metric: "m"}}, // duplicate
		{{Name: "a", Metric: "m", Op: CompareOp("!=")}},      // unknown op
	}
	for i, rules := range bad {
		if _, err := NewSLO(db, reg, nil, rules); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := NewSLO(nil, reg, nil, nil); err == nil {
		t.Error("nil db accepted")
	}
	// Defaults fill in: window, agg, op.
	s, err := NewSLO(db, reg, nil, []Rule{{Name: "a", Metric: "m", Threshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Rules()[0]
	if r.Window != time.Minute || r.Agg != tsdb.AggMean || r.Op != OpGreater {
		t.Errorf("defaults = %+v", r)
	}
}

func TestDefaultSLORulesValid(t *testing.T) {
	db := tsdb.New(0)
	reg := instrument.NewRegistry()
	s, err := NewSLO(db, reg, nil, DefaultSLORules())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules()) < 3 {
		t.Errorf("default rules = %d, want ≥ 3", len(s.Rules()))
	}
	for _, a := range s.Evaluate() {
		if a.State != StateNoData {
			t.Errorf("rule %s on empty db = %s, want no_data", a.Rule, a.State)
		}
	}
}
