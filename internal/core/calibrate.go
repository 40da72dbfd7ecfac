package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"caladrius/internal/linalg"
	"caladrius/internal/metrics"
	"caladrius/internal/topology"
)

// StageTimer receives begin/end hooks for named stages of a model run
// (metric fetches, per-component calibrations). The API tier passes a
// tracing span here; the interface keeps core free of any telemetry
// dependency. StartStage returns the function that ends the stage.
type StageTimer interface {
	StartStage(name string) func()
}

// SaturatedBpMs is the per-window backpressure time at or above which
// a window counts as saturated, for calibration and for the audit
// resolver alike. With a single bottleneck the metric is bimodal
// (§IV-B1: ≈0 or ≈60 000), but when two saturated components alternate
// as the active constraint each one's per-minute share can drop towards
// half, so the threshold is a low 10 000 ms — far above the 0 mode,
// comfortably below any saturated regime.
const SaturatedBpMs = 10_000

// When a metrics gap leaves some component fewer than minWindows
// post-warmup windows, CalibrateTopologyFromProviderReport widens the
// observe window backwards (doubling the lookback, up to maxWidenFactor
// times the original span) and flags the result degraded.
const (
	minWindows     = 3
	maxWidenFactor = 4
)

// CalibrationOptions tunes model calibration from metrics windows.
type CalibrationOptions struct {
	// Warmup drops the first N windows (topology stabilisation; the
	// paper lets experiments reach steady state before measuring).
	Warmup int
	// Window is the metrics rollup interval; default one minute. It
	// converts per-window counts into tuples/minute rates.
	Window time.Duration
	// Stages, when set, is notified of each calibration stage so the
	// caller can time them (tracing, metrics).
	Stages StageTimer
}

// startStage begins a named stage, tolerating a nil timer.
func (o CalibrationOptions) startStage(name string) func() {
	if o.Stages == nil {
		return func() {}
	}
	return o.Stages.StartStage(name)
}

func (o CalibrationOptions) withDefaults() CalibrationOptions {
	if o.Window == 0 {
		o.Window = time.Minute
	}
	return o
}

// perMinute converts a per-window count to tuples/minute.
func perMinute(count float64, window time.Duration) float64 {
	return count * float64(time.Minute) / float64(window)
}

// CalibrateComponent fits a ComponentModel from observed component
// windows (summed over instances) and, optionally, per-instance
// windows (index-aligned slices) used to estimate fields-grouping input
// bias.
//
// Requirements, mirroring §V-B ("we need at least two data points: one
// in the non-saturation interval and one in the saturation interval"):
// α and ψ are estimated from all windows; SP needs at least one
// saturated window, otherwise it is left at +Inf and the model is only
// valid in the linear regime.
func CalibrateComponent(name string, parallelism int, comp []metrics.Window, inst [][]metrics.Window, opts CalibrationOptions) (*ComponentModel, error) {
	return calibrateMasked(name, parallelism, comp, inst, opts, func(w metrics.Window) bool {
		return w.BackpressureMs >= SaturatedBpMs
	})
}

// calibrateMasked is CalibrateComponent with an explicit predicate
// deciding which windows count as saturation observations. Topology-
// aware calibration uses it to discard backpressure that a component
// merely inherited from a downstream bottleneck.
func calibrateMasked(name string, parallelism int, comp []metrics.Window, inst [][]metrics.Window, opts CalibrationOptions, saturated func(metrics.Window) bool) (*ComponentModel, error) {
	opts = opts.withDefaults()
	if parallelism < 1 {
		return nil, fmt.Errorf("core: calibrate %q: parallelism %d", name, parallelism)
	}
	if opts.Warmup >= len(comp) {
		return nil, fmt.Errorf("%w: component %q has %d windows, warmup %d", ErrNotCalibrated, name, len(comp), opts.Warmup)
	}
	ws := comp[opts.Warmup:]

	// Index per-instance execute counts by window time so saturated
	// windows can locate the hottest instance — the one actually pinned
	// at its SP. Under input bias the component total divided by p
	// underestimates SP.
	instExecAt := map[time.Time][]float64{}
	if len(inst) == parallelism {
		for _, iw := range inst {
			for _, w := range iw {
				instExecAt[w.T] = append(instExecAt[w.T], w.Execute)
			}
		}
	}

	var sumExec, sumEmit float64
	var satExec []float64
	var cpuX, cpuY []float64
	for _, w := range ws {
		sumExec += w.Execute
		sumEmit += w.Emit
		if saturated(w) {
			if per, ok := instExecAt[w.T]; ok && len(per) == parallelism {
				hottest := 0.0
				for _, v := range per {
					if v > hottest {
						hottest = v
					}
				}
				satExec = append(satExec, perMinute(hottest, opts.Window))
			} else {
				// No per-instance data: assume the uniform case, where
				// every instance is pinned at SP.
				satExec = append(satExec, perMinute(w.Execute, opts.Window)/float64(parallelism))
			}
		}
		if w.Execute > 0 && w.CPULoad > 0 {
			cpuX = append(cpuX, perMinute(w.Execute, opts.Window))
			cpuY = append(cpuY, w.CPULoad)
		}
	}
	if sumExec <= 0 {
		return nil, fmt.Errorf("%w: component %q processed nothing", ErrNotCalibrated, name)
	}
	alpha := sumEmit / sumExec

	sp := math.Inf(1)
	if len(satExec) > 0 {
		// In a saturated window the hottest instance's input rate is
		// pinned at its SP.
		sp = linalg.Mean(satExec)
	}

	var psi float64
	if len(cpuX) >= 2 {
		slope, err := linalg.LinearFitThroughOrigin(cpuX, cpuY)
		if err == nil {
			psi = slope
		}
	}

	m := &ComponentModel{
		Component:   name,
		Parallelism: parallelism,
		Instance:    InstanceModel{Alpha: alpha, SP: sp},
		CPUPsi:      psi,
	}

	if len(inst) > 0 {
		if len(inst) != parallelism {
			return nil, fmt.Errorf("core: calibrate %q: %d instance series for parallelism %d", name, len(inst), parallelism)
		}
		shares := make([]float64, parallelism)
		var total float64
		for i, iw := range inst {
			if opts.Warmup < len(iw) {
				for _, w := range iw[opts.Warmup:] {
					// Arrivals measure offered load per instance even
					// when the instance saturates; fall back to
					// Execute for writers that do not record arrivals.
					v := w.Arrival
					if v == 0 {
						v = w.Execute
					}
					shares[i] += v
				}
			}
			total += shares[i]
		}
		if total > 0 {
			for i := range shares {
				shares[i] /= total
			}
			m.InputShares = shares
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// CalibrationReport describes how much a calibration had to degrade to
// produce a model. A degraded calibration is still usable — the audit
// ledger carries the flag so its predictions can be discounted.
type CalibrationReport struct {
	// Degraded is true when the observe window had to be widened, or
	// when components stayed below minWindows even after widening.
	Degraded bool
	// Widened is how far the observe-window start was pulled back from
	// the requested one (0 when the original window sufficed).
	Widened time.Duration
	// Sparse lists components still below minWindows post-warmup
	// windows after widening, sorted by component name.
	Sparse []string
}

// CalibrateTopologyFromProviderReport calibrates every component of a
// topology over [start, end), attributing backpressure to the right
// component: a window counts as a saturation observation for component
// C only when no component downstream of C was also in backpressure in
// that window. Backpressure propagates upstream in Heron — when a
// downstream bolt saturates, the spouts' burst-resume cycles can push
// upstream queues over the high watermark too, so an upstream
// component's own backpressure metric is only trustworthy when its
// descendants are quiet.
//
// Metric gaps are tolerated: when any component contributes fewer than
// minWindows post-warmup windows over [start, end) — a metrics gap, a
// short history — the observe window's start is pulled back (doubling
// the lookback each attempt, capped at maxWidenFactor times the
// original span) until every component is well-observed or the cap is
// hit. Any widening, or remaining sparseness, flags the calibration
// degraded in the returned report.
func CalibrateTopologyFromProviderReport(p metrics.Provider, topo *topology.Topology, start, end time.Time, opts CalibrationOptions) (map[string]*ComponentModel, CalibrationReport, error) {
	span := end.Sub(start)
	var rep CalibrationReport
	cur := start
	for {
		models, sparse, err := calibrateTopologySpan(p, topo, cur, end, opts)
		rep.Widened = start.Sub(cur)
		rep.Degraded = rep.Widened > 0
		if err == nil && len(sparse) == 0 {
			return models, rep, nil
		}
		if err != nil && !errors.Is(err, ErrNotCalibrated) && !errors.Is(err, metrics.ErrNoData) {
			// Not a data-scarcity problem (provider down, bad inputs):
			// widening cannot help.
			return nil, rep, err
		}
		next := end.Add(-2 * end.Sub(cur))
		if span <= 0 || end.Sub(next) > time.Duration(maxWidenFactor)*span {
			// Widening cap reached: surface what we have, flagged.
			if err != nil {
				return nil, rep, err
			}
			rep.Degraded = true
			rep.Sparse = sparse
			return models, rep, nil
		}
		cur = next
	}
}

// calibrateTopologySpan runs one calibration attempt over [start, end)
// and reports which components stayed below minWindows post-warmup
// windows.
func calibrateTopologySpan(p metrics.Provider, topo *topology.Topology, start, end time.Time, opts CalibrationOptions) (map[string]*ComponentModel, []string, error) {
	o := opts.withDefaults()
	endFetch := o.startStage("fetch-windows")
	windows := map[string][]metrics.Window{}
	var sparse []string
	for _, c := range topo.Components() {
		ws, err := p.ComponentWindows(topo.Name(), c.Name, start, end)
		if err != nil {
			endFetch()
			return nil, nil, fmt.Errorf("core: calibrate %q: %w", c.Name, err)
		}
		windows[c.Name] = ws
		if len(ws)-o.Warmup < minWindows {
			sparse = append(sparse, c.Name)
		}
	}
	sort.Strings(sparse)
	endFetch()
	// Per-window backpressure flags by component, keyed on window time.
	bpAt := map[string]map[time.Time]bool{}
	for name, ws := range windows {
		flags := make(map[time.Time]bool, len(ws))
		for _, w := range ws {
			flags[w.T] = w.BackpressureMs >= SaturatedBpMs
		}
		bpAt[name] = flags
	}
	models := map[string]*ComponentModel{}
	for _, c := range topo.Components() {
		endStage := o.startStage("calibrate:" + c.Name)
		descendants := topo.Descendants(c.Name)
		saturated := func(w metrics.Window) bool {
			if w.BackpressureMs < SaturatedBpMs {
				return false
			}
			for _, d := range descendants {
				if bpAt[d][w.T] {
					return false
				}
			}
			return true
		}
		inst := make([][]metrics.Window, c.Parallelism)
		for i := 0; i < c.Parallelism; i++ {
			iw, err := p.InstanceWindows(topo.Name(), c.Name, i, start, end)
			if err != nil {
				inst = nil
				break
			}
			inst[i] = iw
		}
		m, err := calibrateMasked(c.Name, c.Parallelism, windows[c.Name], inst, opts, saturated)
		if err != nil {
			endStage()
			return nil, nil, err
		}
		// Per-stream I/O coefficients (Eqs. 4–5): split the aggregate α
		// in proportion to observed per-stream emit totals, when the
		// metrics source records them.
		if totals, err := p.StreamEmitTotals(topo.Name(), c.Name, start, end); err == nil && len(totals) > 0 {
			var sum float64
			for _, v := range totals {
				sum += v
			}
			if sum > 0 {
				m.StreamAlphas = make(map[string]float64, len(totals))
				for key, v := range totals {
					m.StreamAlphas[key] = m.Instance.Alpha * v / sum
				}
			}
		}
		if err := m.Validate(); err != nil {
			endStage()
			return nil, nil, err
		}
		models[c.Name] = m
		endStage()
	}
	return models, sparse, nil
}

// MergeCalibrations combines models of the same component calibrated
// from different runs (e.g. one unsaturated run for α/ψ and one
// saturated run for SP), preferring finite saturation points and
// non-zero CPU slopes. α, SP and ψ are per-instance quantities (Eq. 9),
// so the runs may differ in parallelism; the merged model then takes
// b's parallelism and input shares, as b is the later deployment.
func MergeCalibrations(a, b *ComponentModel) (*ComponentModel, error) {
	if a.Component != b.Component {
		return nil, fmt.Errorf("core: merging models of %q and %q", a.Component, b.Component)
	}
	out := *a
	if a.Parallelism != b.Parallelism {
		out.Parallelism, out.InputShares = b.Parallelism, b.InputShares
	}
	// α: average the two estimates (both regimes estimate it).
	out.Instance.Alpha = (a.Instance.Alpha + b.Instance.Alpha) / 2
	if math.IsInf(out.Instance.SP, 1) {
		out.Instance.SP = b.Instance.SP
	} else if !math.IsInf(b.Instance.SP, 1) {
		out.Instance.SP = (a.Instance.SP + b.Instance.SP) / 2
	}
	if out.CPUPsi == 0 {
		out.CPUPsi = b.CPUPsi
	}
	if len(out.InputShares) == 0 {
		out.InputShares = b.InputShares
	}
	// Per-stream α: keep a's split if present, else b's, rescaled so it
	// still sums to the merged aggregate α.
	src := a.StreamAlphas
	srcAggregate := a.Instance.Alpha
	if len(src) == 0 {
		src, srcAggregate = b.StreamAlphas, b.Instance.Alpha
	}
	if len(src) > 0 && srcAggregate > 0 {
		out.StreamAlphas = make(map[string]float64, len(src))
		for k, v := range src {
			out.StreamAlphas[k] = v * out.Instance.Alpha / srcAggregate
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}
