package telemetry

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"caladrius/internal/tsdb"
)

// The SLO evaluator checks declarative rules against recent windows of
// the scraped history and tracks firing/resolved state per rule, with
// transition counters registered back into the registry (so alert
// flapping is itself observable). Evaluation is pull-based: callers —
// the /api/v1/alerts handler and the scraper's AfterScrape hook —
// invoke Evaluate whenever fresh state is wanted.

// CompareOp orders a rule's observed value against its threshold.
type CompareOp string

// Supported comparisons.
const (
	OpGreater CompareOp = ">"
	OpLess    CompareOp = "<"
)

// Rule is one declarative SLO check. Exactly one evaluation mode
// applies: Ratio compares windowed counter increases
// (increase(Metric{Selector}) / increase(Metric{DenomSelector}), the
// 5xx-error-rate shape); otherwise Agg reduces every matching point in
// the window to one value (the latency-quantile and duty-cycle shape,
// via the scraper's derived series).
type Rule struct {
	// Name uniquely identifies the rule in alert payloads and the
	// transition counters.
	Name string
	// Description is surfaced verbatim in alert payloads.
	Description string
	// Metric is the history series to evaluate.
	Metric string
	// Selector restricts which label sets of Metric are considered.
	Selector tsdb.Labels
	// Window is how far back to look. Default: 1 minute.
	Window time.Duration
	// Agg reduces the windowed points (threshold mode). Default: mean.
	Agg tsdb.Agg
	// Ratio switches to counter-increase ratio mode.
	Ratio bool
	// DenomSelector selects the denominator series in ratio mode; empty
	// matches every series of Metric.
	DenomSelector tsdb.Labels
	// Op and Threshold define the breach condition. Default op: ">".
	Op        CompareOp
	Threshold float64
}

// AlertState is the lifecycle state of one rule.
type AlertState string

// Alert states. NoData means the window held nothing evaluable — the
// rule keeps its previous firing timestamp but is reported distinctly
// so a dead scraper is not mistaken for a healthy service.
const (
	StateOK     AlertState = "ok"
	StateFiring AlertState = "firing"
	StateNoData AlertState = "no_data"
)

// Alert is the evaluated state of one rule.
type Alert struct {
	Rule        string     `json:"rule"`
	Description string     `json:"description,omitempty"`
	State       AlertState `json:"state"`
	// Value is the observed value; absent when the window had no data.
	Value     *float64 `json:"value,omitempty"`
	Threshold float64  `json:"threshold"`
	Op        string   `json:"op"`
	Window    string   `json:"window"`
	// Since is when the rule last flipped to firing; set while firing.
	Since       *time.Time `json:"since,omitempty"`
	EvaluatedAt time.Time  `json:"evaluated_at"`
}

// SLO evaluates a fixed rule set against a history store.
type SLO struct {
	db    *tsdb.DB
	now   func() time.Time
	rules []Rule

	mu         sync.Mutex
	firing     map[string]time.Time
	toFiring   map[string]*Counter
	toResolved map[string]*Counter
	onFiring   []func(Rule, Alert)
}

// NewSLO validates rules, registers their transition counters on reg
// and returns the evaluator. now anchors windows (nil = time.Now).
func NewSLO(db *tsdb.DB, reg *Registry, now func() time.Time, rules []Rule) (*SLO, error) {
	if db == nil || reg == nil {
		return nil, errors.New("telemetry: SLO needs a history db and a registry")
	}
	if now == nil {
		now = time.Now
	}
	reg.SetHelp("caladrius_slo_transitions_total", "SLO rule state flips, by rule and new state.")
	s := &SLO{
		db:         db,
		now:        now,
		rules:      append([]Rule(nil), rules...),
		firing:     map[string]time.Time{},
		toFiring:   map[string]*Counter{},
		toResolved: map[string]*Counter{},
	}
	seen := map[string]bool{}
	for i := range s.rules {
		r := &s.rules[i]
		if r.Name == "" || r.Metric == "" {
			return nil, fmt.Errorf("telemetry: SLO rule %d missing name or metric", i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("telemetry: duplicate SLO rule %q", r.Name)
		}
		seen[r.Name] = true
		if r.Window <= 0 {
			r.Window = time.Minute
		}
		if r.Agg == "" {
			r.Agg = tsdb.AggMean
		}
		if r.Op == "" {
			r.Op = OpGreater
		}
		if r.Op != OpGreater && r.Op != OpLess {
			return nil, fmt.Errorf("telemetry: SLO rule %q has unknown op %q", r.Name, r.Op)
		}
		if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
			return nil, fmt.Errorf("telemetry: SLO rule %q has non-finite threshold", r.Name)
		}
		s.toFiring[r.Name] = reg.Counter("caladrius_slo_transitions_total", Labels{"rule": r.Name, "to": "firing"})
		s.toResolved[r.Name] = reg.Counter("caladrius_slo_transitions_total", Labels{"rule": r.Name, "to": "resolved"})
	}
	return s, nil
}

// Rules returns a copy of the configured rule set.
func (s *SLO) Rules() []Rule { return append([]Rule(nil), s.rules...) }

// OnFiring registers fn to be invoked for every rule that transitions
// to firing — the hook the incident flight recorder arms itself on.
// Callbacks run after Evaluate has released the evaluator lock, on the
// Evaluate caller's goroutine; anything slow must hand the work off
// (the recorder enqueues an asynchronous capture).
func (s *SLO) OnFiring(fn func(Rule, Alert)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.onFiring = append(s.onFiring, fn)
	s.mu.Unlock()
}

// Evaluate checks every rule against its window ending now and returns
// the alert states, flipping firing/resolved and incrementing the
// transition counters as needed.
func (s *SLO) Evaluate() []Alert {
	now := s.now()
	type transition struct {
		rule  Rule
		alert Alert
	}
	var fired []transition
	s.mu.Lock()
	out := make([]Alert, 0, len(s.rules))
	for _, r := range s.rules {
		a := Alert{
			Rule:        r.Name,
			Description: r.Description,
			Threshold:   r.Threshold,
			Op:          string(r.Op),
			Window:      r.Window.String(),
			EvaluatedAt: now,
		}
		v, ok := s.eval(r, now)
		if !ok {
			a.State = StateNoData
			if since, f := s.firing[r.Name]; f {
				a.Since = &since
			}
			out = append(out, a)
			continue
		}
		val := v
		a.Value = &val
		breach := (r.Op == OpGreater && v > r.Threshold) || (r.Op == OpLess && v < r.Threshold)
		since, wasFiring := s.firing[r.Name]
		newlyFiring := false
		switch {
		case breach && !wasFiring:
			since = now
			s.firing[r.Name] = since
			s.toFiring[r.Name].Inc()
			newlyFiring = true
		case !breach && wasFiring:
			delete(s.firing, r.Name)
			s.toResolved[r.Name].Inc()
		}
		if breach {
			a.State = StateFiring
			a.Since = &since
		} else {
			a.State = StateOK
		}
		out = append(out, a)
		if newlyFiring {
			fired = append(fired, transition{rule: r, alert: a})
		}
	}
	var hooks []func(Rule, Alert)
	if len(fired) > 0 {
		hooks = append(hooks, s.onFiring...)
	}
	s.mu.Unlock()
	for _, tr := range fired {
		for _, fn := range hooks {
			fn(tr.rule, tr.alert)
		}
	}
	return out
}

// eval computes one rule's observed value over [now-Window, now).
func (s *SLO) eval(r Rule, now time.Time) (float64, bool) {
	start := now.Add(-r.Window)
	if r.Ratio {
		num, _ := increase(s.db, r.Metric, r.Selector, start, now)
		den, ok := increase(s.db, r.Metric, r.DenomSelector, start, now)
		if !ok || den == 0 {
			return 0, false
		}
		return num / den, true
	}
	v, err := s.db.Aggregate(r.Metric, r.Selector, start, now, r.Agg)
	if err != nil || math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// increase sums per-series counter growth over the window. ok requires
// at least one matching series with two points — a single sample cannot
// measure growth.
func increase(db *tsdb.DB, metric string, sel tsdb.Labels, start, end time.Time) (float64, bool) {
	series, err := db.Query(metric, sel, start, end)
	if err != nil {
		return 0, false
	}
	var total float64
	ok := false
	for _, s := range series {
		if len(s.Points) < 2 {
			continue
		}
		ok = true
		d := s.Points[len(s.Points)-1].V - s.Points[0].V
		if d < 0 { // counter reset inside the window
			d = s.Points[len(s.Points)-1].V
		}
		total += d
	}
	return total, ok
}

// DefaultSLORules are the rules cmd/caladrius evaluates out of the box:
// p95 request latency, 5xx error rate and the demo simulator's
// backpressure duty cycle.
func DefaultSLORules() []Rule {
	return []Rule{
		{
			Name:        "http-p95-latency",
			Description: "p95 request latency above 500ms over the last minute",
			Metric:      QuantileSeries("caladrius_http_request_duration_seconds", 0.95),
			Agg:         tsdb.AggMax,
			Window:      time.Minute,
			Op:          OpGreater,
			Threshold:   0.5,
		},
		{
			Name:          "http-5xx-rate",
			Description:   "more than 5% of requests returned 5xx over the last 5 minutes",
			Metric:        "caladrius_http_requests_total",
			Selector:      tsdb.Labels{"class": "5xx"},
			Ratio:         true,
			DenomSelector: nil,
			Window:        5 * time.Minute,
			Op:            OpGreater,
			Threshold:     0.05,
		},
		{
			Name:        "sim-backpressure-duty",
			Description: "simulator instances under backpressure for most of the last minute",
			Metric:      "caladrius_sim_backpressure_active_instances",
			Agg:         tsdb.AggMean,
			Window:      time.Minute,
			Op:          OpGreater,
			Threshold:   0.5,
		},
	}
}

// lastValueWindow bounds how far back the model-accuracy and profiler
// rules look for their latest value: a few resolver cycles and
// profiler epochs.
const lastValueWindow = 15 * time.Minute

// ProfilerRules returns the SLO rule fed by the continuous profiler's
// caladrius_profile_* series: it fires when some function's share of
// CPU flat time has regressed past deltaThreshold (a fraction of
// total, so 0.2 = 20 percentage points) versus the profiling
// baseline. The metric name is written out rather than imported so
// telemetry stays dependency-free, mirroring ModelAccuracyRules.
func ProfilerRules(deltaThreshold float64) []Rule {
	return []Rule{
		{
			Name:        "profile-hot-function-regression",
			Description: "a function's share of CPU flat time regressed past the budget versus the profiling baseline",
			Metric:      "caladrius_profile_top_regression_delta",
			Selector:    tsdb.Labels{"kind": "cpu"},
			Agg:         tsdb.AggLast,
			Window:      lastValueWindow,
			Op:          OpGreater,
			Threshold:   deltaThreshold,
		},
	}
}

// ModelAccuracyRules returns the two SLO rules fed by the prediction
// audit ledger's caladrius_model_* series (internal/audit). The metric
// names are written out rather than imported so telemetry stays
// dependency-free of audit.
//
// mapeThreshold is the rolling MAPE above which model accuracy counts
// as drifted (e.g. 0.25 = 25% mean error); staleAfter is how old a
// topology's calibration may grow before the stale-calibration rule
// fires.
func ModelAccuracyRules(mapeThreshold float64, staleAfter time.Duration) []Rule {
	return []Rule{
		{
			Name:        "model-accuracy-drift",
			Description: "rolling prediction MAPE above threshold — the model's view of the topology has drifted from its observed behaviour",
			Metric:      "caladrius_model_mape",
			Agg:         tsdb.AggLast,
			Window:      lastValueWindow,
			Op:          OpGreater,
			Threshold:   mapeThreshold,
		},
		{
			Name:        "model-stale-calibration",
			Description: "topology model calibration older than the staleness budget",
			Metric:      "caladrius_model_calibration_age_seconds",
			Agg:         tsdb.AggLast,
			Window:      lastValueWindow,
			Op:          OpGreater,
			Threshold:   staleAfter.Seconds(),
		},
	}
}
