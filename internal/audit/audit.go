// Package audit implements Caladrius' prediction audit ledger: an
// append-only, capacity- and age-bounded record of every model run the
// service performs, plus a background resolver that later joins each
// record against the actuals the metrics provider observed and derives
// model-accuracy series from the comparison.
//
// The paper reports model error once, offline (§V, Fig. 8–12); a
// long-running service needs the same comparison continuously, because
// a calibration drifts the moment the workload does. Every run of the
// throughput/backpressure/CPU models records its inputs, the
// calibration snapshot (α/SP/ST per component) and the predicted
// quantities; the resolver computes per-record signed error and APE,
// rolling MAPE, and backpressure-classifier precision/recall. Each
// graded record's APE is appended to the history store as an event; the
// rolling figures are registry gauges, which the self-monitoring scraper
// copies into history like every other instrument, to feed the
// accuracy-drift and stale-calibration SLO rules
// (telemetry.ModelAccuracyRules).
//
// The record hot path — Ledger.Record — performs no allocation once
// it has seen a record's names and parallelism configuration: the ring
// is preallocated, ids are integers, and names, configurations and the
// run counters are interned.
package audit

import (
	"fmt"
	"sync"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/tsdb"
)

// Series the ledger exports. MetricAPE is the one it appends to the
// history store itself; the rest are registry instruments. All carry
// topology and model labels except the calibration age, which is per
// topology.
const (
	// MetricRuns counts recorded model runs.
	MetricRuns = "caladrius_model_runs_total"
	// MetricResolved counts records the resolver joined with actuals.
	MetricResolved = "caladrius_model_resolved_total"
	// MetricAPE is the per-record absolute percentage error of the
	// predicted sink throughput, stamped at the record's creation time.
	MetricAPE = "caladrius_model_ape"
	// MetricMAPE is the rolling mean APE over the last 20
	// audited records.
	MetricMAPE = "caladrius_model_mape"
	// MetricSignedError is the rolling mean signed relative error
	// (positive = model over-predicts).
	MetricSignedError = "caladrius_model_signed_error"
	// MetricPrecision and MetricRecall grade the backpressure-risk
	// classifier against observed backpressure (cumulative).
	MetricPrecision = "caladrius_model_bp_precision"
	MetricRecall    = "caladrius_model_bp_recall"
	// MetricCalibrationAge is seconds since each topology's model was
	// last calibrated.
	MetricCalibrationAge = "caladrius_model_calibration_age_seconds"
)

// Risk outcomes of one resolved record's backpressure classification.
const (
	RiskTP = "tp" // predicted high, backpressure observed
	RiskFP = "fp" // predicted high, none observed
	RiskFN = "fn" // predicted low, backpressure observed
	RiskTN = "tn" // predicted low, none observed
)

// Predicted holds the quantities one model run predicted.
// SaturationSourceTPM is the largest finite float when the topology
// cannot saturate (the model's +Inf, which JSON cannot carry), the value
// the performance and suggest endpoints send for the same run.
type Predicted struct {
	SinkTPM             float64 `json:"sink_tpm"`
	OutputTPM           float64 `json:"output_tpm"`
	SaturationSourceTPM float64 `json:"saturation_source_tpm"`
	Bottleneck          string  `json:"bottleneck,omitempty"`
	Risk                string  `json:"backpressure_risk"`
	TotalCPUCores       float64 `json:"total_cpu_cores"`
	// Sink is the critical path's final component — the entity whose
	// observed throughput the resolver joins against.
	Sink string `json:"sink"`
}

// Observed holds the actuals the resolver measured over the record's
// observation window [Start, End).
type Observed struct {
	Start                   time.Time `json:"window_start"`
	End                     time.Time `json:"window_end"`
	Windows                 int       `json:"windows"`
	SinkTPM                 float64   `json:"sink_tpm"`
	BackpressureMsPerWindow float64   `json:"backpressure_ms_per_window"`
	Backpressure            bool      `json:"backpressure"`
	TotalCPUCores           float64   `json:"total_cpu_cores"`
}

// Errors holds one resolved record's error metrics. Relative errors
// follow the experiments package's relErr convention: divided by the
// observed value, or left absolute when the observed value is zero.
type Errors struct {
	// SinkSigned is (predicted − observed) / observed sink throughput;
	// positive means the model over-predicted.
	SinkSigned float64 `json:"sink_signed_error"`
	// SinkAPE is |predicted − observed| / observed sink throughput.
	SinkAPE float64 `json:"sink_ape"`
	// CPUSigned is the signed relative error of total predicted CPU.
	CPUSigned float64 `json:"cpu_signed_error"`
	// RiskOutcome classifies the backpressure prediction: tp|fp|fn|tn.
	RiskOutcome string `json:"risk_outcome"`
}

// Record is one immutable audit ledger entry.
type Record struct {
	ID        int64     `json:"id"`
	Topology  string    `json:"topology"`
	Model     string    `json:"model"` // "predict" or "plan"
	TraceID   string    `json:"trace_id,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// Tenant is the usage principal the run was attributed to (the
	// sanitized X-Caladrius-Tenant header), so incident bundles and
	// calctl accuracy can be sliced per tenant.
	Tenant string `json:"tenant,omitempty"`

	// SourceRateTPM and Parallelism are the model inputs.
	SourceRateTPM float64        `json:"source_rate_tpm"`
	Parallelism   map[string]int `json:"parallelism,omitempty"`
	// Counterfactual marks dry-runs of configurations or rates that
	// differ from what is actually deployed. The resolver still attaches
	// actuals for context, but computes no error metrics — comparing a
	// hypothetical plan against the running plan's throughput would
	// grade the model on a question it was not asked.
	Counterfactual bool `json:"counterfactual"`
	// Degraded marks runs whose calibration ran in degraded mode (the
	// observe window had to be widened, or stayed sparse, because the
	// metrics provider had gaps) — context for interpreting large APEs.
	Degraded bool `json:"degraded,omitempty"`
	// CachedCalibration marks runs served by the calibration cache (or
	// a calibration another concurrent run performed) instead of a
	// fresh fetch→calibrate pass of their own — context for both cache
	// effectiveness and for tracing a bad prediction back to the
	// calibration that produced it.
	CachedCalibration bool `json:"cached_calibration,omitempty"`

	// Calibration is the α/SP/ST/ψ snapshot the run was computed from
	// (shared across records of one calibration — do not mutate).
	Calibration []core.ComponentCalibration `json:"calibration,omitempty"`

	// Cost is the run's measured resource footprint. The API meters
	// every run; nil only in a record built without one.
	Cost *core.RunCost `json:"cost,omitempty"`

	Predicted Predicted `json:"predicted"`

	Resolved   bool       `json:"resolved"`
	ResolvedAt *time.Time `json:"resolved_at,omitempty"`
	Observed   *Observed  `json:"observed,omitempty"`
	Errors     *Errors    `json:"errors,omitempty"`
}

// RunRecord is the one place a model run becomes a record: it fills the
// fields the model determines — the inputs, the calibration snapshot
// and degraded flag of tm, and what pred predicts, with the sink taken
// from the critical path and the saturation source made finite. The
// caller adds the run's identity (topology, model kind, trace id,
// tenant, cost, counterfactual and cached-calibration flags).
func RunRecord(tm *core.TopologyModel, par map[string]int, rate float64, pred core.TopologyPrediction) Record {
	cp := pred.CriticalPath()
	sink := ""
	if len(cp.Path) > 0 {
		sink = cp.Path[len(cp.Path)-1]
	}
	return Record{
		SourceRateTPM: rate,
		Parallelism:   par,
		Degraded:      tm.Degraded,
		Calibration:   tm.CalibrationSnapshot(),
		Predicted: Predicted{
			SinkTPM:             pred.SinkThroughput,
			OutputTPM:           cp.OutputRate,
			SaturationSourceTPM: core.FiniteSaturation(pred.SaturationSource),
			Bottleneck:          pred.Bottleneck,
			Risk:                string(pred.Risk),
			TotalCPUCores:       pred.TotalCPU,
			Sink:                sink,
		},
	}
}

// Options configures a Ledger.
type Options struct {
	// Provider supplies the actuals the resolver joins against.
	Provider metrics.Provider
	// History receives the per-record caladrius_model_ape points. It is
	// the store the scraper copies Registry into and the SLO rules
	// evaluate.
	History *tsdb.DB
	// Registry receives the run counters and rolling gauges; the gauges
	// reach History only through the scraper that walks it.
	Registry *instrument.Registry
	// Now stamps records; align it with the service clock (the clock
	// the metrics provider's data lives on).
	Now func() time.Time
	// SeriesNow stamps the caladrius_model_ape points appended into
	// History. It exists because a daemon may model a frozen or
	// simulated service clock while its self-monitoring history runs on
	// wall time — pass time.Now there so accuracy points land in the
	// SLO evaluation window.
	SeriesNow func() time.Time
	// MetricsWindow is the provider's rollup interval, used to convert
	// per-window counts to tuples/minute.
	MetricsWindow time.Duration
}

// Values no caller changes.
const (
	// capacity bounds retained records (ring buffer).
	capacity = 4096
	// retention evicts records older than this.
	retention = 2 * time.Hour
	// observeWindow is the trailing actuals window a record is resolved
	// against: [CreatedAt−observeWindow, CreatedAt).
	observeWindow = 5 * time.Minute
	// rollingWindow is how many audited records the rolling MAPE and
	// signed error average over.
	rollingWindow = 20
)

// modelKey indexes per-(topology, model) state without allocating.
type modelKey struct{ topology, model string }

// rollingStats accumulates resolver output for one (topology, model).
type rollingStats struct {
	ape    []float64 // last rollingWindow audited APEs, oldest first
	signed []float64
	// cumulative backpressure-classifier confusion counts
	tp, fp, fn, tn int
	resolved       int
	audited        int
}

// Ledger is the prediction audit ledger. All methods are safe for
// concurrent use.
type Ledger struct {
	provider      metrics.Provider
	db            *tsdb.DB
	reg           *instrument.Registry
	now           func() time.Time
	seriesNow     func() time.Time
	metricsWindow time.Duration

	mu       sync.Mutex
	recs     []entry // preallocated ring
	head     int     // index of the oldest record
	n        int
	seq      int64 // last assigned id; ids start at 1
	interned *interned
	// spare is the buffers of the last finished resolver pass, which
	// the next one reuses; nil while a pass holds them.
	spare *resolver

	runs            map[modelKey]*instrument.Counter
	rolling         map[modelKey]*rollingStats
	inst            map[modelKey]*instruments
	calAgeG         map[string]*instrument.Gauge
	lastCalibration map[string]time.Time
}

// instruments is where the resolver writes one (topology, model)'s
// results, interned so a pass builds no label maps.
type instruments struct {
	resolved                    *instrument.Counter
	mapeG, signedG, precG, recG *instrument.Gauge // registered with the first audited record
	ape                         *tsdb.SeriesHandle
}

func (l *Ledger) instrumentsLocked(key modelKey) *instruments {
	in := l.inst[key]
	if in == nil {
		in = &instruments{
			resolved: l.reg.Counter(MetricResolved, instrument.Labels{"topology": key.topology, "model": key.model}),
			ape:      l.db.Handle(MetricAPE, tsdb.Labels{"topology": key.topology, "model": key.model}),
		}
		l.inst[key] = in
	}
	return in
}

// rollingLocked returns (creating if needed) the rolling state of key.
func (l *Ledger) rollingLocked(key modelKey) *rollingStats {
	rs := l.rolling[key]
	if rs == nil {
		rs = &rollingStats{}
		l.rolling[key] = rs
	}
	return rs
}

// add folds one resolved record into the rolling state; errs is nil for
// a counterfactual record, which is counted but not graded.
func (rs *rollingStats) add(errs *Errors) {
	rs.resolved++
	if errs == nil {
		return
	}
	rs.audited++
	rs.ape = appendTrim(rs.ape, errs.SinkAPE, rollingWindow)
	rs.signed = appendTrim(rs.signed, errs.SinkSigned, rollingWindow)
	switch errs.RiskOutcome {
	case RiskTP:
		rs.tp++
	case RiskFP:
		rs.fp++
	case RiskFN:
		rs.fn++
	case RiskTN:
		rs.tn++
	}
}

// NewLedger builds a ledger. Every option is required.
func NewLedger(opts Options) (*Ledger, error) {
	for _, req := range []struct {
		what, field string
		unset       bool
	}{
		{"a metrics provider", "Provider", opts.Provider == nil},
		{"a history store", "History", opts.History == nil},
		{"a telemetry registry", "Registry", opts.Registry == nil},
		{"a clock", "Now", opts.Now == nil},
		{"a series clock", "SeriesNow", opts.SeriesNow == nil},
		{"a positive metrics window", "MetricsWindow", opts.MetricsWindow <= 0},
	} {
		if req.unset {
			return nil, fmt.Errorf("audit: ledger needs %s (Options.%s)", req.what, req.field)
		}
	}
	reg := opts.Registry
	reg.SetHelp(MetricRuns, "Model runs recorded in the audit ledger, by topology and model.")
	reg.SetHelp(MetricResolved, "Audit records the resolver joined with observed actuals.")
	reg.SetHelp(MetricMAPE, "Rolling mean absolute percentage error of predicted sink throughput.")
	reg.SetHelp(MetricSignedError, "Rolling mean signed relative error of predicted sink throughput.")
	reg.SetHelp(MetricPrecision, "Backpressure-risk classifier precision (cumulative).")
	reg.SetHelp(MetricRecall, "Backpressure-risk classifier recall (cumulative).")
	reg.SetHelp(MetricCalibrationAge, "Seconds since the topology model was last calibrated.")
	return &Ledger{
		provider:        opts.Provider,
		db:              opts.History,
		reg:             opts.Registry,
		now:             opts.Now,
		seriesNow:       opts.SeriesNow,
		metricsWindow:   opts.MetricsWindow,
		recs:            make([]entry, capacity),
		interned:        newInterned(),
		spare:           &resolver{},
		runs:            map[modelKey]*instrument.Counter{},
		rolling:         map[modelKey]*rollingStats{},
		inst:            map[modelKey]*instruments{},
		calAgeG:         map[string]*instrument.Gauge{},
		lastCalibration: map[string]time.Time{},
	}, nil
}

// Record appends one audit record and returns its id. The caller fills
// everything except ID, CreatedAt (when zero) and resolution fields.
// The ledger keeps no pointer into rec but its shared calibration
// snapshot. This is the hot path: 0 allocs/op once a record's names,
// parallelism configuration and (topology, model) run counter have
// been interned.
func (l *Ledger) Record(rec Record) int64 {
	l.mu.Lock()
	if rec.CreatedAt.IsZero() {
		rec.CreatedAt = l.now()
	}
	l.seq++
	rec.ID = l.seq
	rec.Resolved = false
	rec.ResolvedAt, rec.Observed, rec.Errors = nil, nil, nil
	l.evictLocked(rec.CreatedAt)
	slot := l.head
	if l.n < capacity {
		slot = (l.head + l.n) % capacity
		l.n++
	} else {
		l.head = (l.head + 1) % capacity
	}
	e := &l.recs[slot]
	e.pack(&rec, l.interned)
	key := modelKey{e.topology, e.model}
	c := l.runs[key]
	if c == nil {
		c = l.reg.Counter(MetricRuns, instrument.Labels{"topology": key.topology, "model": key.model})
		l.runs[key] = c
	}
	l.mu.Unlock()
	c.Inc()
	return rec.ID
}

// evictLocked drops records older than the retention horizon.
func (l *Ledger) evictLocked(now time.Time) {
	horizon := now.Add(-retention)
	for l.n > 0 && l.recs[l.head].createdAt.Before(horizon) {
		l.recs[l.head] = entry{}
		l.head = (l.head + 1) % capacity
		l.n--
	}
}

// NoteCalibration marks the topology's model as freshly calibrated at
// the given time — the anchor of the stale-calibration gauge.
func (l *Ledger) NoteCalibration(topology string, at time.Time) {
	l.mu.Lock()
	l.lastCalibration[topology] = at
	g := l.calAgeGaugeLocked(topology)
	l.mu.Unlock()
	g.Set(0)
}

func (l *Ledger) calAgeGaugeLocked(topology string) *instrument.Gauge {
	g := l.calAgeG[topology]
	if g == nil {
		g = l.reg.Gauge(MetricCalibrationAge, instrument.Labels{"topology": topology})
		l.calAgeG[topology] = g
	}
	return g
}

// Collector returns a scrape-time hook that refreshes the calibration
// age gauges (ages grow between resolve cycles; gauges would otherwise
// go stale). Wire it via telemetry.Scraper.AddCollector.
func (l *Ledger) Collector() func() {
	return func() {
		now := l.now()
		l.mu.Lock()
		for topo, at := range l.lastCalibration {
			l.calAgeGaugeLocked(topo).Set(now.Sub(at).Seconds())
		}
		l.mu.Unlock()
	}
}

// Get returns one record by id.
func (l *Ledger) Get(id int64) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.getLocked(id)
	if e == nil {
		return Record{}, false
	}
	return e.unpack(&recordArrays{}), true
}

// getLocked finds an id's ring slot, or nil: the ring holds
// consecutive ids, so a record's offset from the oldest retained id is
// its distance from head.
func (l *Ledger) getLocked(id int64) *entry {
	if l.n == 0 {
		return nil
	}
	off := id - l.recs[l.head].id
	if off < 0 || off >= int64(l.n) {
		return nil
	}
	return &l.recs[(l.head+int(off))%capacity]
}

// Filter selects records for List. Zero fields match everything.
type Filter struct {
	Topology string
	Model    string
	Tenant   string
	// Resolved filters by resolution state when non-nil.
	Resolved *bool
	// Since/Until bound CreatedAt (inclusive since, exclusive until).
	Since, Until time.Time
	// Limit caps the result length (newest first). 0 means 100.
	Limit int
}

// List returns matching records, newest first.
func (l *Ledger) List(f Filter) []Record {
	if f.Limit <= 0 {
		f.Limit = 100
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Two walks: the first sizes the page, so the second unpacks it into
	// one array a pointer field.
	var size pageSize
	l.pageLocked(f, size.add)
	out := make([]Record, 0, size.records)
	arrays := size.arrays()
	l.pageLocked(f, func(e *entry) { out = append(out, e.unpack(&arrays)) })
	return out
}

// pageLocked calls fn with each record f selects, newest first, up to
// f.Limit. The caller holds l.mu.
func (l *Ledger) pageLocked(f Filter, fn func(*entry)) {
	n := 0
	for i := l.n - 1; i >= 0 && n < f.Limit; i-- {
		e := &l.recs[(l.head+i)%capacity]
		if f.Topology != "" && e.topology != f.Topology {
			continue
		}
		if f.Model != "" && e.model != f.Model {
			continue
		}
		if f.Tenant != "" && e.tenant != f.Tenant {
			continue
		}
		if f.Resolved != nil && e.has(flagResolved) != *f.Resolved {
			continue
		}
		if !f.Since.IsZero() && e.createdAt.Before(f.Since) {
			continue
		}
		if !f.Until.IsZero() && !e.createdAt.Before(f.Until) {
			continue
		}
		fn(e)
		n++
	}
}

// Len returns the number of retained records.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Stats summarises the resolver's accumulated accuracy for one
// (topology, model) pair.
type Stats struct {
	Topology string `json:"topology"`
	Model    string `json:"model"`
	// Resolved counts records joined with actuals; Audited counts the
	// non-counterfactual subset that fed the error metrics.
	Resolved int `json:"resolved"`
	Audited  int `json:"audited"`
	// MAPE and SignedError are the rolling means over the last
	// 20 audited records; nil before the first.
	MAPE        *float64 `json:"mape,omitempty"`
	SignedError *float64 `json:"signed_error,omitempty"`
	// Confusion counts and derived precision/recall of the
	// backpressure-risk classifier (cumulative).
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	TN        int     `json:"tn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// LastCalibrated is when the topology model was last calibrated,
	// when known.
	LastCalibrated *time.Time `json:"last_calibrated,omitempty"`
}

// Stats returns per-(topology, model) accuracy summaries, sorted.
func (l *Ledger) Stats() []Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Stats, 0, len(l.rolling))
	for key, rs := range l.rolling {
		s := Stats{
			Topology: key.topology,
			Model:    key.model,
			Resolved: rs.resolved,
			Audited:  rs.audited,
			TP:       rs.tp, FP: rs.fp, FN: rs.fn, TN: rs.tn,
		}
		s.Precision, s.Recall = PrecisionRecall(rs.tp, rs.fp, rs.fn)
		if len(rs.ape) > 0 {
			m, sg := mean(rs.ape), mean(rs.signed)
			s.MAPE, s.SignedError = &m, &sg
		}
		if at, ok := l.lastCalibration[key.topology]; ok {
			t := at
			s.LastCalibrated = &t
		}
		out = append(out, s)
	}
	sortStats(out)
	return out
}

func sortStats(s []Stats) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].Topology < s[j-1].Topology ||
			(s[j].Topology == s[j-1].Topology && s[j].Model < s[j-1].Model)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// mean sums left-to-right (oldest first) — the order the closed-loop
// accuracy test replicates, so results match bit-for-bit.
func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// PrecisionRecall derives the backpressure classifier's precision and
// recall from confusion counts. Empty denominators — no predicted
// positives (precision) or no observed positives (recall) — grade as a
// perfect 1: a topology that never backpressures and a model that
// never cries wolf are both vacuously right.
func PrecisionRecall(tp, fp, fn int) (precision, recall float64) {
	precision, recall = 1, 1
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}
