package audit

import (
	"context"
	"errors"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/tsdb"
)

// The resolver: joins pending audit records against observed actuals.
//
// Join semantics. A record created at time T is compared against the
// trailing observation window [T−observeWindow, T): the actuals the
// metrics provider had already rolled up when the prediction was made.
// This measures exactly what drift observability needs — how far the
// model's view of the topology has diverged from its live behaviour —
// and lets records resolve immediately instead of waiting wall-clock
// time for a future window (which a service with a frozen demo clock,
// or one predicting hypothetical rates, could never fill).
//
// Per record the resolver reads the critical-path sink component's
// windows (observed sink throughput = mean Execute per window scaled
// to tuples/minute), the topology backpressure series (observed
// backpressure = mean ms/window ≥ core.SaturatedBpMs, the calibration
// saturation threshold), and the calibrated components' CPU loads.
// Records whose window has no data yet stay pending and are retried
// on the next cycle.
//
// Counterfactual records (hypothetical parallelisms or rates) get
// Observed attached for context but no Errors: grading a what-if
// prediction against the deployed configuration's actuals would score
// the model on a question it was not asked.

// resolution is one record's computed join, carried out of the
// unlocked provider-query phase and applied under the ledger lock.
type resolution struct {
	id       int64
	observed Observed
	errs     *Errors
}

// ResolveOnce runs one resolver cycle at the given instant: joins
// every pending record whose observation window has data, updates the
// rolling accuracy state, appends each graded record's
// caladrius_model_ape point and refreshes the gauges. It returns the
// number of records resolved.
func (l *Ledger) ResolveOnce(now time.Time) int {
	// Copy pending records out so provider queries run unlocked.
	l.mu.Lock()
	pending := make([]Record, 0, l.n)
	for i := 0; i < l.n; i++ {
		rec := l.recs[(l.head+i)%capacity]
		if !rec.Resolved && !rec.CreatedAt.After(now) {
			pending = append(pending, rec)
		}
	}
	l.mu.Unlock()
	if len(pending) == 0 {
		l.refreshGauges(now)
		return 0
	}

	seen := pass{
		provider:     l.provider,
		components:   map[windowKey]componentActuals{},
		backpressure: map[windowKey]backpressureActuals{},
	}
	resolutions := make([]resolution, 0, len(pending))
	for _, rec := range pending {
		obs, ok := l.observe(rec, &seen)
		if !ok {
			continue
		}
		res := resolution{id: rec.ID, observed: obs}
		if !rec.Counterfactual {
			res.errs = computeErrors(rec.Predicted, obs)
		}
		resolutions = append(resolutions, res)
	}

	// Apply under lock, oldest first — the rolling window order the
	// closed-loop accuracy test replicates. Everything a record's
	// resolution feeds (rolling stats, resolved counter, APE point) is
	// counted here, where a record a concurrent pass already applied is
	// skipped.
	seriesAt := l.seriesNow()
	var apes []tsdb.BatchSample
	resolved := map[*instrument.Counter]int{}
	l.mu.Lock()
	applied := 0
	for _, res := range resolutions {
		rec, idx, ok := l.getLocked(res.id)
		if !ok || rec.Resolved {
			continue // evicted or raced
		}
		at := now
		obs := res.observed
		l.recs[idx].Resolved = true
		l.recs[idx].ResolvedAt = &at
		l.recs[idx].Observed = &obs
		l.recs[idx].Errors = res.errs
		key := modelKey{rec.Topology, rec.Model}
		l.rollingLocked(key).add(res.errs)
		in := l.instrumentsLocked(key)
		resolved[in.resolved]++
		if res.errs != nil {
			// On a unified clock the record's creation instant is the
			// natural stamp; when the series clock diverges (frozen demo
			// clock) use the cycle instant so points stay in window.
			stamp := rec.CreatedAt
			if !seriesAt.Equal(now) {
				stamp = seriesAt
			}
			apes = append(apes, tsdb.BatchSample{H: in.ape, T: stamp, V: res.errs.SinkAPE})
		}
		applied++
	}
	l.mu.Unlock()

	for c, n := range resolved {
		c.Add(float64(n))
	}
	l.db.AppendBatch(apes)
	l.refreshGauges(now)
	return applied
}

// windowKey names one observation window of one entity within a pass.
// The window is [end−observeWindow, end), so end identifies it.
type windowKey struct {
	topology, component string
	end                 time.Time
}

type componentActuals struct {
	ss metrics.SteadyState
	ok bool // the window had data
}

type backpressureActuals struct {
	msPerWindow float64
	ok          bool // the series answered (with data or with none)
}

// pass remembers what the provider answered during one ResolveOnce, so
// each distinct window is queried once however many records join
// against it — a failure included: its records stay pending together
// and the next pass asks again. Only identical keys share; records
// created at different instants keep their own exact windows.
type pass struct {
	provider     metrics.Provider
	components   map[windowKey]componentActuals
	backpressure map[windowKey]backpressureActuals
}

func (p *pass) component(topology, component string, start, end time.Time) (metrics.SteadyState, bool) {
	key := windowKey{topology, component, end}
	a, seen := p.components[key]
	if !seen {
		if ws, err := p.provider.ComponentWindows(topology, component, start, end); err == nil && len(ws) > 0 {
			a.ss, err = metrics.Summarise(ws, 0)
			a.ok = err == nil
		}
		p.components[key] = a
	}
	return a.ss, a.ok
}

// topologyBackpressure is the mean per-window topology backpressure
// time. A missing series means the writer observed none.
func (p *pass) topologyBackpressure(topology string, start, end time.Time) (float64, bool) {
	key := windowKey{topology: topology, end: end}
	a, seen := p.backpressure[key]
	if !seen {
		pts, err := p.provider.TopologyBackpressureMs(topology, start, end)
		a.ok = err == nil || errors.Is(err, metrics.ErrNoData)
		if err == nil && len(pts) > 0 {
			var sum float64
			for _, pt := range pts {
				sum += pt.V
			}
			a.msPerWindow = sum / float64(len(pts))
		}
		p.backpressure[key] = a
	}
	return a.msPerWindow, a.ok
}

// observe joins one record with its actuals. ok is false when the
// observation window has no usable data yet (retry later).
func (l *Ledger) observe(rec Record, seen *pass) (Observed, bool) {
	start := rec.CreatedAt.Add(-observeWindow)
	end := rec.CreatedAt
	sink := rec.Predicted.Sink
	if sink == "" {
		sink = rec.Predicted.Bottleneck
	}
	if sink == "" {
		return Observed{}, false
	}
	ss, ok := seen.component(rec.Topology, sink, start, end)
	if !ok {
		return Observed{}, false
	}
	obs := Observed{
		Start:   start,
		End:     end,
		Windows: ss.Windows,
		// Execute is a raw count per rollup window; scale to
		// tuples/minute, the model's unit.
		SinkTPM: ss.Execute * float64(time.Minute) / float64(l.metricsWindow),
	}
	// Backpressure against the calibration saturation threshold.
	if obs.BackpressureMsPerWindow, ok = seen.topologyBackpressure(rec.Topology, start, end); !ok {
		return Observed{}, false
	}
	obs.Backpressure = obs.BackpressureMsPerWindow >= core.SaturatedBpMs
	// CPU: sum observed component loads over the calibrated components
	// (the same set TotalCPU was predicted over).
	for _, cc := range rec.Calibration {
		if css, ok := seen.component(rec.Topology, cc.Component, start, end); ok {
			obs.TotalCPUCores += css.CPULoad
		}
	}
	return obs, true
}

// computeErrors derives one audited record's error metrics. Relative
// errors follow the experiments package's relErr convention exactly:
// divided by the observed value, absolute when it is zero.
func computeErrors(pred Predicted, obs Observed) *Errors {
	e := &Errors{
		SinkAPE:    relErr(pred.SinkTPM, obs.SinkTPM),
		SinkSigned: signedRelErr(pred.SinkTPM, obs.SinkTPM),
		CPUSigned:  signedRelErr(pred.TotalCPUCores, obs.TotalCPUCores),
	}
	predHigh := pred.Risk == "high"
	switch {
	case predHigh && obs.Backpressure:
		e.RiskOutcome = RiskTP
	case predHigh && !obs.Backpressure:
		e.RiskOutcome = RiskFP
	case !predHigh && obs.Backpressure:
		e.RiskOutcome = RiskFN
	default:
		e.RiskOutcome = RiskTN
	}
	return e
}

// relErr is |got−want|/want, or |got| when want is zero — the same
// convention as the experiments package, which the closed-loop
// accuracy test depends on matching to 1e-9.
func relErr(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	if want == 0 {
		return d
	}
	return d / want
}

func signedRelErr(got, want float64) float64 {
	if want == 0 {
		return got
	}
	return (got - want) / want
}

// appendTrim appends v and keeps only the last n values.
func appendTrim(s []float64, v float64, n int) []float64 {
	s = append(s, v)
	if len(s) > n {
		copy(s, s[len(s)-n:])
		s = s[:n]
	}
	return s
}

// refreshGauges sets the rolling gauges of every audited key and the
// calibration ages, computed on the record clock now. The scraper
// copies them into the history store.
func (l *Ledger) refreshGauges(now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, rs := range l.rolling {
		if len(rs.ape) == 0 {
			continue
		}
		in := l.instrumentsLocked(key)
		if in.mapeG == nil {
			labels := instrument.Labels{"topology": key.topology, "model": key.model}
			in.mapeG = l.reg.Gauge(MetricMAPE, labels)
			in.signedG = l.reg.Gauge(MetricSignedError, labels)
			in.precG = l.reg.Gauge(MetricPrecision, labels)
			in.recG = l.reg.Gauge(MetricRecall, labels)
		}
		prec, rec := PrecisionRecall(rs.tp, rs.fp, rs.fn)
		in.mapeG.Set(mean(rs.ape))
		in.signedG.Set(mean(rs.signed))
		in.precG.Set(prec)
		in.recG.Set(rec)
	}
	for topo, at := range l.lastCalibration {
		l.calAgeGaugeLocked(topo).Set(now.Sub(at).Seconds())
	}
}

// Run ticks ResolveOnce every interval, which must be positive, until
// ctx is done, stamping each cycle with the ledger clock.
func (l *Ledger) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			l.ResolveOnce(l.now())
		}
	}
}
