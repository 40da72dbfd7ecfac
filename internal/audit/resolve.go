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

// resolveBatch bounds how many pending records one step of a pass
// copies out of the ring, joins unlocked and applies, so a pass over a
// full ring of pending records holds buffers for a batch, not a ring.
const resolveBatch = 256

// resolver is the buffers a pass works in. The ledger keeps the last
// pass's (Ledger.spare) for the next one; a pass that overlaps another
// gets its own.
type resolver struct {
	pending []pendingRecord
	joined  []resolution
	apes    []tsdb.BatchSample
}

// pendingRecord is what the join reads of a pending record, copied out
// of the ring so provider queries run unlocked. Calibration is shared
// and never mutated; the join reads its component names.
type pendingRecord struct {
	id             int64
	topology       string
	createdAt      time.Time
	counterfactual bool
	calibration    []core.ComponentCalibration
	predicted      Predicted
}

// resolution is one record's computed join, carried out of the
// unlocked provider-query phase and applied under the ledger lock.
type resolution struct {
	id       int64
	observed Observed
	errs     Errors
	graded   bool // errs is set: the record is not counterfactual
}

// ResolveOnce runs one resolver cycle at the given instant: joins
// every pending record whose observation window has data, updates the
// rolling accuracy state, appends each graded record's
// caladrius_model_ape point and refreshes the gauges. It returns the
// number of records resolved.
//
// It works through the pending records in id order, resolveBatch at a
// time, with one provider cache for the whole pass: a window that
// records of several batches join against is still queried once.
func (l *Ledger) ResolveOnce(now time.Time) int {
	l.mu.Lock()
	r, last := l.spare, l.seq
	l.spare = nil
	l.mu.Unlock()
	if r == nil {
		r = &resolver{}
	}
	seen := pass{provider: l.provider}
	seriesAt := l.seriesNow()
	applied := 0
	for after := int64(0); after < last; {
		after = l.collect(r, after, last, now)
		r.joined = r.joined[:0]
		for i := range r.pending {
			rec := &r.pending[i]
			obs, ok := l.observe(rec, &seen)
			if !ok {
				continue
			}
			res := resolution{id: rec.id, observed: obs, graded: !rec.counterfactual}
			if res.graded {
				res.errs = computeErrors(rec.predicted, obs)
			}
			r.joined = append(r.joined, res)
		}
		applied += l.apply(r, now, seriesAt)
	}
	l.mu.Lock()
	l.spare = r
	l.mu.Unlock()
	l.refreshGauges(now)
	return applied
}

// collect copies into r.pending, in id order, up to resolveBatch
// records with ids in (after, last] that are pending at now. It returns
// the id to continue after: the last one copied when the batch is
// full, else last.
func (l *Ledger) collect(r *resolver, after, last int64, now time.Time) int64 {
	r.pending = r.pending[:0]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return last
	}
	// The ring holds consecutive ids, so the first id after after is
	// its offset from the oldest.
	for i := max(0, min(int64(l.n), after+1-l.recs[l.head].id)); i < int64(l.n); i++ {
		e := &l.recs[(int64(l.head)+i)%capacity]
		if e.id > last {
			break
		}
		if e.has(flagResolved) || e.createdAt.After(now) {
			continue
		}
		r.pending = append(r.pending, pendingRecord{
			id: e.id, topology: e.topology, createdAt: e.createdAt, counterfactual: e.has(flagCounterfactual),
			calibration: e.calibration, predicted: e.predicted,
		})
		if len(r.pending) == resolveBatch {
			return e.id
		}
	}
	return last
}

// apply writes r.joined into the ring under the lock, oldest first —
// the rolling window order the closed-loop accuracy test replicates —
// and appends the graded records' APE points. Everything a record's
// resolution feeds (rolling stats, resolved counter, APE point) is
// counted here, where a record a concurrent pass already applied is
// skipped. It returns the number applied.
func (l *Ledger) apply(r *resolver, now, seriesAt time.Time) int {
	r.apes = r.apes[:0]
	applied := 0
	l.mu.Lock()
	for i := range r.joined {
		res := &r.joined[i]
		e := l.getLocked(res.id)
		if e == nil || e.has(flagResolved) {
			continue // evicted or raced
		}
		e.flags |= flagResolved | flagResolvedAt
		e.resolvedAt = now
		e.observe(res.observed)
		var errs *Errors
		if res.graded {
			e.grade(res.errs, l.interned)
			errs = &res.errs
		}
		key := modelKey{e.topology, e.model}
		l.rollingLocked(key).add(errs)
		in := l.instrumentsLocked(key)
		in.resolved.Inc()
		if errs != nil {
			// On a unified clock the record's creation instant is the
			// natural stamp; when the series clock diverges (frozen demo
			// clock) use the cycle instant so points stay in window.
			stamp := e.createdAt
			if !seriesAt.Equal(now) {
				stamp = seriesAt
			}
			r.apes = append(r.apes, tsdb.BatchSample{H: in.ape, T: stamp, V: errs.SinkAPE})
		}
		applied++
	}
	l.mu.Unlock()
	l.db.AppendBatch(r.apes)
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
// created at different instants keep their own exact windows. Its maps
// are made on the first query, so a pass with nothing pending
// allocates none.
type pass struct {
	provider     metrics.Provider
	components   map[windowKey]componentActuals
	backpressure map[windowKey]backpressureActuals
}

func (p *pass) component(topology, component string, start, end time.Time) (metrics.SteadyState, bool) {
	key := windowKey{topology, component, end}
	a, seen := p.components[key]
	if !seen {
		if p.components == nil {
			p.components = map[windowKey]componentActuals{}
		}
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
		if p.backpressure == nil {
			p.backpressure = map[windowKey]backpressureActuals{}
		}
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
func (l *Ledger) observe(rec *pendingRecord, seen *pass) (Observed, bool) {
	start := rec.createdAt.Add(-observeWindow)
	end := rec.createdAt
	sink := rec.predicted.Sink
	if sink == "" {
		sink = rec.predicted.Bottleneck
	}
	if sink == "" {
		return Observed{}, false
	}
	ss, ok := seen.component(rec.topology, sink, start, end)
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
	if obs.BackpressureMsPerWindow, ok = seen.topologyBackpressure(rec.topology, start, end); !ok {
		return Observed{}, false
	}
	obs.Backpressure = obs.BackpressureMsPerWindow >= core.SaturatedBpMs
	// CPU: sum observed component loads over the calibrated components
	// (the same set TotalCPU was predicted over).
	for _, cc := range rec.calibration {
		if css, ok := seen.component(rec.topology, cc.Component, start, end); ok {
			obs.TotalCPUCores += css.CPULoad
		}
	}
	return obs, true
}

// computeErrors derives one audited record's error metrics. Relative
// errors follow the experiments package's relErr convention exactly:
// divided by the observed value, absolute when it is zero.
func computeErrors(pred Predicted, obs Observed) Errors {
	e := Errors{
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
