// Package experiments regenerates every figure of the paper's
// evaluation (§V, Figures 4–12) plus the two system-level comparisons
// (traffic forecasting and Dhalion-vs-Caladrius) and four ablations.
// Experiments is the one list of them: each row runs its simulations
// once and returns every Table those simulations feed, whose series
// mirror what the corresponding figure plots; cmd/figures renders them
// as CSV/ASCII and bench_test.go wraps each row as a sub-benchmark.
package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/heron"
	"caladrius/internal/linalg"
	"caladrius/internal/metrics"
)

// Table is one experiment's result: a figure-shaped data series plus
// headline findings.
type Table struct {
	// Name is the experiment id, e.g. "fig04", taken from the row that
	// produced the table.
	Name string
	// Title describes the figure being reproduced.
	Title string
	// Columns name the row fields.
	Columns []string
	// Rows hold the series data.
	Rows [][]float64
	// Findings are the headline numbers (prediction errors, knees)
	// compared against the paper.
	Findings []string
}

// CSV renders the table as comma-separated text.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.6g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCII renders the table with padded columns and findings.
func (t Table) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.Name, t.Title)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%18s", c)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%18.6g", v)
		}
		b.WriteByte('\n')
	}
	for _, f := range t.Findings {
		fmt.Fprintf(&b, "-- %s\n", f)
	}
	return b.String()
}

// Experiment is one row of the evaluation: the tables it produces, in
// the order run returns them, and the run that produces them. Figures
// that plot one sweep share a row, so each distinct simulation runs
// once per suite.
type Experiment struct {
	Tables []string
	run    func(SweepOptions) ([]Table, error)
}

// Experiments is the evaluation in the order cmd/figures prints it,
// and the only statement of which experiments exist.
var Experiments = []Experiment{
	{[]string{"fig04", "fig05", "fig06"}, instanceSweep},
	{[]string{"fig07", "fig08", "fig10", "fig11", "fig12"}, componentModel},
	{[]string{"fig09"}, counterModel},
	{[]string{"traffic"}, trafficForecast},
	{[]string{"dhalion"}, dhalionVsCaladrius},
	{[]string{"ablation-watermarks"}, ablationWatermarkGap},
	{[]string{"ablation-attribution"}, ablationCalibrationAttribution},
	{[]string{"ablation-noise"}, ablationNoiseVsError},
	{[]string{"ablation-schedulers"}, ablationSchedulerPlans},
}

// Lookup returns the row that produces the named table.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if slices.Contains(e.Tables, name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run runs the row under sweep and returns its tables, named after the
// row.
func (e Experiment) Run(sweep SweepOptions) ([]Table, error) {
	if err := sweep.validate(); err != nil {
		return nil, err
	}
	tables, err := e.run(sweep)
	if err != nil {
		return nil, err
	}
	for i := range tables {
		tables[i].Name = e.Tables[i]
	}
	return tables, nil
}

// SweepOptions shapes every simulated deployment of a run. Each field
// means what it says: a zero NoiseStd is a noiseless simulator.
type SweepOptions struct {
	// WarmupMinutes and MeasureMinutes shape each simulated run.
	WarmupMinutes, MeasureMinutes int
	// Tick is the simulation step.
	Tick time.Duration
	// Repeats is the number of noise-seeded repetitions per measured
	// point (the paper repeated observations 10 times and plotted 90%
	// intervals).
	Repeats int
	// NoiseStd is the per-tick service-capacity noise applied to
	// measurement runs, giving realistic run-to-run variation.
	NoiseStd float64
	// Parallelism bounds the sweep worker pool (see RunPoints). 0 uses
	// GOMAXPROCS; 1 forces the sequential path. Results are identical
	// at every setting.
	Parallelism int
}

// DefaultSweep is the sweep results/ was generated with. It keeps a
// full figure regeneration fast; cmd/figures -accurate lengthens its
// runs for tighter steady-state averages.
var DefaultSweep = SweepOptions{WarmupMinutes: 5, MeasureMinutes: 6, Tick: 100 * time.Millisecond, Repeats: 5, NoiseStd: 0.015}

// validate refuses a sweep that measures nothing, which would fill the
// tables with NaN, and a negative worker count, which would run at the
// default as if asked to.
func (o SweepOptions) validate() error {
	switch {
	case o.Repeats < 1:
		return fmt.Errorf("experiments: %d repeats, want at least 1", o.Repeats)
	case o.MeasureMinutes < 1:
		return fmt.Errorf("experiments: %d measured minutes, want at least 1", o.MeasureMinutes)
	case o.Tick <= 0:
		return fmt.Errorf("experiments: non-positive tick %s", o.Tick)
	case o.Parallelism < 0:
		return fmt.Errorf("experiments: parallelism %d, want 0 (GOMAXPROCS) or more workers", o.Parallelism)
	}
	return nil
}

// measuredCI is a repeated observation of one component at one rate:
// means with 90%-style low/high bounds across noise-seeded repeats,
// mirroring the paper's "avg / 0.9low / 0.9high" series.
type measuredCI struct {
	Exec, ExecLo, ExecHi float64
	Emit, EmitLo, EmitHi float64
	BpMs                 float64
	CPU                  float64
}

// measureCI deploys word-count for Repeats sweep-shaped runs with
// independent noise seeds, fanned across the sweep's worker pool, and
// summarises a component's steady state over them; the per-repeat seeds
// and the order statistics are accumulated in are those of the old
// sequential loop, so the result is bit-identical at any parallelism.
func measureCI(opts heron.WordCountOptions, sweep SweepOptions, component string) (measuredCI, error) {
	opts.Tick, opts.ServiceNoiseStd = sweep.Tick, sweep.NoiseStd
	states, err := RunPoints(sweep, sweep.Repeats, func(r int) (metrics.SteadyState, error) {
		o := opts
		o.NoiseSeed = RepeatSeed(r)
		d, err := metrics.DeployWordCount(o, sweep.WarmupMinutes, sweep.MeasureMinutes)
		if err != nil {
			return metrics.SteadyState{}, err
		}
		return d.SteadyState(component)
	})
	if err != nil {
		return measuredCI{}, err
	}
	var execs, emits []float64
	var out measuredCI
	for _, ss := range states {
		execs = append(execs, ss.Execute)
		emits = append(emits, ss.Emit)
		out.BpMs += ss.BackpressureMs
		out.CPU += ss.CPULoad
	}
	n := float64(sweep.Repeats)
	out.BpMs /= n
	out.CPU /= n
	out.Exec = linalg.Mean(execs)
	out.ExecLo = linalg.Quantile(execs, 0.05)
	out.ExecHi = linalg.Quantile(execs, 0.95)
	out.Emit = linalg.Mean(emits)
	out.EmitLo = linalg.Quantile(emits, 0.05)
	out.EmitHi = linalg.Quantile(emits, 0.95)
	return out, nil
}

// calibrateSplitter calibrates the splitter (and friends) at the given
// parallelism from one linear and one saturated run, as §V-B
// prescribes, the way the service calibrates: backpressure a component
// shares with a descendant is not its own saturation.
func calibrateSplitter(splitterP, counterP int, linearRate, satRate float64, sweep SweepOptions) (map[string]*core.ComponentModel, error) {
	// The linear and the saturated calibration runs are independent
	// simulations; run both through the pool, then merge in the fixed
	// linear-then-saturated order the sequential path used.
	rates := []float64{linearRate, satRate}
	perRate, err := RunPoints(sweep, len(rates), func(i int) (map[string]*core.ComponentModel, error) {
		d, err := metrics.DeployWordCount(heron.WordCountOptions{
			SplitterP: splitterP, CounterP: counterP, RatePerMinute: rates[i], Tick: sweep.Tick,
			ServiceNoiseStd: sweep.NoiseStd, NoiseSeed: 555,
		}, sweep.WarmupMinutes, sweep.MeasureMinutes)
		if err != nil {
			return nil, err
		}
		models, _, err := core.CalibrateTopologyFromProviderReport(d.Provider, d.Topology, d.Start, d.AsOf, core.CalibrationOptions{Warmup: d.Warmup})
		return models, err
	})
	if err != nil {
		return nil, err
	}
	models := perRate[0]
	for comp, m := range perRate[1] {
		merged, err := core.MergeCalibrations(models[comp], m)
		if err != nil {
			return nil, err
		}
		models[comp] = merged
	}
	return models, nil
}

// relErr is the relative error of got against want. A zero want makes
// the relative error undefined, so the absolute error is returned
// instead of NaN (0/0) or ±Inf.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

// instanceSweep reproduces Figs. 4–6 from one sweep of the splitter at
// parallelism 1, the source swept from 1 to 20 M tuples/minute.
func instanceSweep(sweep SweepOptions) ([]Table, error) {
	rates := rateGrid(1e6, 20e6, 1e6)
	ms, err := RunPoints(sweep, len(rates), func(i int) (measuredCI, error) {
		return measureCI(heron.WordCountOptions{SplitterP: 1, CounterP: 3, RatePerMinute: rates[i]}, sweep, "splitter")
	})
	if err != nil {
		return nil, err
	}
	return []Table{fig04(rates, ms), fig05(rates, ms), fig06(rates, ms)}, nil
}

// fig04 reproduces Fig. 4: splitter instance input and output rate
// versus topology source throughput. The paper observes a linear region
// up to SP ≈ 11 M and a plateau beyond.
func fig04(rates []float64, ms []measuredCI) Table {
	t := Table{
		Title: "Instance throughput (input, output) vs topology source throughput",
		Columns: []string{
			"source_Mtpm",
			"input_avg_Mtpm", "input_lo_Mtpm", "input_hi_Mtpm",
			"output_avg_Mtpm", "output_lo_Mtpm", "output_hi_Mtpm",
		},
	}
	spInput := float64(heron.SplitterServiceRate) * 60 / 1e6
	var maxLinearIn, satIn float64
	for i, rate := range rates {
		m := ms[i]
		t.Rows = append(t.Rows, []float64{
			rate / 1e6,
			m.Exec / 1e6, m.ExecLo / 1e6, m.ExecHi / 1e6,
			m.Emit / 1e6, m.EmitLo / 1e6, m.EmitHi / 1e6,
		})
		if rate < spInput*1e6 {
			maxLinearIn = m.Exec / 1e6
		} else {
			satIn = m.Exec / 1e6
		}
	}
	t.Findings = append(t.Findings,
		fmt.Sprintf("saturation point ≈ %.1f M tuples/min (paper: ≈11 M)", spInput),
		fmt.Sprintf("input tracks source until SP (last linear %.1f M), plateaus at %.1f M beyond", maxLinearIn, satIn),
	)
	return t
}

// fig05 reproduces Fig. 5: the splitter's output/input ratio versus
// source throughput — near-constant at the corpus mean sentence length
// (paper: 7.63–7.64).
func fig05(rates []float64, ms []measuredCI) Table {
	t := Table{
		Title:   "Instance output/input ratio vs instance source throughput",
		Columns: []string{"source_Mtpm", "ratio"},
	}
	minR, maxR := math.Inf(1), math.Inf(-1)
	for i, rate := range rates {
		m := ms[i]
		ratio := m.Emit / m.Exec
		t.Rows = append(t.Rows, []float64{rate / 1e6, ratio})
		minR, maxR = math.Min(minR, ratio), math.Max(maxR, ratio)
	}
	t.Findings = append(t.Findings,
		fmt.Sprintf("ratio ∈ [%.4f, %.4f] (paper: 7.63–7.64, the corpus mean sentence length)", minR, maxR),
	)
	return t
}

// fig06 reproduces Fig. 6: per-minute backpressure time versus source
// throughput — ≈0 below SP, jumping steeply towards 60 000 ms above it
// (the bimodality assumption of §IV-B1).
func fig06(rates []float64, ms []measuredCI) Table {
	t := Table{
		Title:   "Instance backpressure time vs instance source throughput",
		Columns: []string{"source_Mtpm", "bp_ms_per_min"},
	}
	var below, above []float64
	sp := float64(heron.SplitterServiceRate) * 60
	for i, rate := range rates {
		m := ms[i]
		t.Rows = append(t.Rows, []float64{rate / 1e6, m.BpMs})
		if rate < sp*0.98 {
			below = append(below, m.BpMs)
		} else if rate > sp*1.05 {
			above = append(above, m.BpMs)
		}
	}
	t.Findings = append(t.Findings,
		fmt.Sprintf("below SP: max %.0f ms/min; above SP: min %.0f ms/min (paper: steep 0 → ~60000 step)", slices.Max(below), slices.Min(above)),
	)
	return t
}
