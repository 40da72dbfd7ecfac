package profiler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"caladrius/internal/atomicfile"
	"caladrius/internal/instrument"
)

// Kind names one of the profile kinds the continuous profiler
// captures every interval.
type Kind string

const (
	KindCPU       Kind = "cpu"
	KindHeap      Kind = "heap"
	KindGoroutine Kind = "goroutine"
	KindMutex     Kind = "mutex"
)

// Kinds lists every captured profile kind, in capture order.
var Kinds = []Kind{KindCPU, KindHeap, KindGoroutine, KindMutex}

// ValidKind reports whether s names a captured profile kind.
func ValidKind(s string) bool {
	for _, k := range Kinds {
		if string(k) == s {
			return true
		}
	}
	return false
}

// Source produces raw pprof bytes for one profile kind. Tests swap in
// synthetic sources; production uses the runtime/pprof-backed default.
type Source func(kind Kind) ([]byte, error)

// RuntimeSource returns the production Source: CPU is sampled for
// CPUWindow, the snapshot kinds come from pprof.Lookup.
func RuntimeSource() Source {
	return func(kind Kind) ([]byte, error) {
		var buf bytes.Buffer
		var err error
		if kind == KindCPU {
			err = CaptureCPUProfile(&buf, CPUWindow)
		} else {
			err = CaptureProfile(&buf, string(kind))
		}
		if err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

const (
	// CPUWindow is how long each CPU capture samples. The daemon's
	// capture interval must be longer.
	CPUWindow = 250 * time.Millisecond
	// epoch is the width of one fold window.
	epoch = time.Minute
	// windowCap bounds the ring of completed epoch windows.
	windowCap = 8
	// diffWindows is how many recent windows (including the one being
	// filled) queries and diffs merge over.
	diffWindows = 3
	// topK bounds the function/stack lists served by default.
	topK = 20
	// minSamples guards the regression diff: windows that folded fewer
	// samples than this report an empty diff and a zero regression
	// delta, so an idle process never fires the SLO.
	minSamples = 10
)

// Options configures a Profiler. Registry, Interval, Now and Logger
// are required.
type Options struct {
	// Registry receives the caladrius_profile_* instruments. The
	// telemetry scraper appends every registered instrument to the
	// TSDB, so setting gauges here is all the profiler needs to do to
	// feed SLO rules and dashboards.
	Registry *instrument.Registry

	// Interval between capture rounds in Run.
	Interval time.Duration
	// BaselinePath, when set, persists the baseline snapshot as JSON
	// and reloads it on startup.
	BaselinePath string

	// Source overrides profile capture (tests). Default RuntimeSource.
	Source Source
	// Now stamps captures and epoch windows.
	Now func() time.Time
	// Logger receives capture errors and baseline events.
	Logger *slog.Logger
}

// BaselineVersion is the on-disk baseline format version; loading a
// file with any other version is an error (re-baseline instead).
const BaselineVersion = 1

// baselineFuncsCap bounds how many functions per kind a baseline
// snapshot retains; beyond the cap, absent functions diff against a
// zero share, which is the conservative direction for regressions.
const baselineFuncsCap = 512

// BaselineFunc is one function's share of a kind's total in the
// baseline snapshot.
type BaselineFunc struct {
	Function string  `json:"function"`
	FlatFrac float64 `json:"flat_frac"`
	CumFrac  float64 `json:"cum_frac"`
}

// baselineKind is the per-kind payload of a baseline snapshot.
type baselineKind struct {
	Total   int64          `json:"total"`
	Samples int64          `json:"samples"`
	Unit    string         `json:"unit,omitempty"`
	Funcs   []BaselineFunc `json:"funcs"`
}

// Baseline is a versioned snapshot of per-function value shares that
// later windows are diffed against.
type Baseline struct {
	Version   int                   `json:"version"`
	CreatedAt time.Time             `json:"created_at"`
	Auto      bool                  `json:"auto"`
	Kinds     map[Kind]baselineKind `json:"kinds"`
}

// DiffEntry is one function's change in value share versus the
// baseline. Fractions are of the kind's total, so a DeltaFlat of 0.2
// means the function gained 20 percentage points of (e.g.) CPU flat
// time.
type DiffEntry struct {
	Function  string  `json:"function"`
	BaseFlat  float64 `json:"base_flat_frac"`
	CurFlat   float64 `json:"cur_flat_frac"`
	DeltaFlat float64 `json:"delta_flat_frac"`
	BaseCum   float64 `json:"base_cum_frac"`
	CurCum    float64 `json:"cur_cum_frac"`
	DeltaCum  float64 `json:"delta_cum_frac"`
}

// Diff is the regression report for one kind: entries ranked by flat
// share delta descending.
type Diff struct {
	Kind       Kind        `json:"kind"`
	Total      int64       `json:"total"`
	Samples    int64       `json:"samples"`
	Unit       string      `json:"unit,omitempty"`
	MinSamples int64       `json:"min_samples"`
	Guarded    bool        `json:"guarded"` // true: too few samples, deltas suppressed
	Entries    []DiffEntry `json:"entries"`
}

// TopDelta returns the largest positive flat regression in the diff,
// 0 when none.
func (d *Diff) TopDelta() float64 {
	if len(d.Entries) == 0 || d.Entries[0].DeltaFlat <= 0 {
		return 0
	}
	return d.Entries[0].DeltaFlat
}

// BaselineMeta is the queryable summary of the active baseline.
type BaselineMeta struct {
	Version   int       `json:"version"`
	CreatedAt time.Time `json:"created_at"`
	Auto      bool      `json:"auto"`
	Funcs     int       `json:"funcs"`
}

// Status summarizes the profiler for /api/v1/profiles and calctl.
type Status struct {
	Interval        string           `json:"interval"`
	CPUWindow       string           `json:"cpu_window"`
	Epoch           string           `json:"epoch"`
	WindowCap       int              `json:"window_cap"`
	DiffWindows     int              `json:"diff_windows"`
	TopK            int              `json:"topk"`
	WindowsRetained int              `json:"windows_retained"` // completed windows in the ring
	WindowStart     *time.Time       `json:"window_start,omitempty"`
	Captures        map[Kind]uint64  `json:"captures"`
	CaptureErrors   uint64           `json:"capture_errors"`
	Samples         map[Kind]int64   `json:"samples"` // over the diff window span
	TopRegression   map[Kind]float64 `json:"top_regression_delta"`
	Baseline        *BaselineMeta    `json:"baseline,omitempty"`
	BaselinePath    string           `json:"baseline_path,omitempty"`
	LastCapture     *time.Time       `json:"last_capture,omitempty"`
	LastDuty        float64          `json:"last_duty_ratio"` // capture wall time / interval
	LastErrors      map[Kind]string  `json:"last_errors,omitempty"`
}

// epochWindow is one fold window of the ring.
type epochWindow struct {
	start  time.Time
	tables map[Kind]*Table
}

func newWindow(start time.Time) *epochWindow {
	w := &epochWindow{start: start, tables: make(map[Kind]*Table, len(Kinds))}
	for _, k := range Kinds {
		w.tables[k] = NewTable()
	}
	return w
}

// Profiler is the always-on continuous profiler.
type Profiler struct {
	opts Options

	mu       sync.Mutex
	cur      *epochWindow
	ring     []*epochWindow // completed windows, oldest first
	baseline *Baseline
	lastErr  map[Kind]string
	lastCap  time.Time

	// instruments (registry-owned; scraped automatically). Status reads
	// its capture counts and duty ratio from them.
	mCaptures map[Kind]*instrument.Counter
	mErrors   *instrument.Counter
	mSamples  map[Kind]*instrument.Counter
	mDelta    map[Kind]*instrument.Gauge
	mWindows  *instrument.Gauge
	mBaseAge  *instrument.Gauge
	mDuty     *instrument.Gauge
	mDur      *instrument.Histogram
}

// New builds a Profiler and, when Options.BaselinePath names an
// existing file, loads the persisted baseline from it.
func New(o Options) (*Profiler, error) {
	for _, req := range []struct {
		field string
		unset bool
	}{
		{"Registry", o.Registry == nil},
		{"Interval", o.Interval <= 0},
		{"Now", o.Now == nil},
		{"Logger", o.Logger == nil},
	} {
		if req.unset {
			return nil, fmt.Errorf("profiler: Options.%s is required", req.field)
		}
	}
	if o.Source == nil {
		o.Source = RuntimeSource()
	}
	reg := o.Registry
	reg.SetHelp("caladrius_profile_captures_total", "Profile captures completed, by kind.")
	reg.SetHelp("caladrius_profile_capture_errors_total", "Profile captures that failed (any kind).")
	reg.SetHelp("caladrius_profile_samples_total", "Profile samples folded into windows, by kind.")
	reg.SetHelp("caladrius_profile_top_regression_delta", "Largest positive flat-share delta vs the baseline, by kind.")
	reg.SetHelp("caladrius_profile_windows", "Completed epoch windows retained in the ring.")
	reg.SetHelp("caladrius_profile_baseline_age_seconds", "Age of the active baseline snapshot.")
	reg.SetHelp("caladrius_profile_duty_ratio", "Fraction of the capture interval spent capturing profiles.")
	reg.SetHelp("caladrius_profile_capture_duration_seconds", "Wall time of one full capture round.")
	p := &Profiler{
		opts:      o,
		lastErr:   make(map[Kind]string),
		mCaptures: make(map[Kind]*instrument.Counter, len(Kinds)),
		mSamples:  make(map[Kind]*instrument.Counter, len(Kinds)),
		mDelta:    make(map[Kind]*instrument.Gauge, len(Kinds)),
		mErrors:   reg.Counter("caladrius_profile_capture_errors_total", nil),
		mWindows:  reg.Gauge("caladrius_profile_windows", nil),
		mBaseAge:  reg.Gauge("caladrius_profile_baseline_age_seconds", nil),
		mDuty:     reg.Gauge("caladrius_profile_duty_ratio", nil),
		mDur:      reg.Histogram("caladrius_profile_capture_duration_seconds", instrument.DefLatencyBuckets, nil),
	}
	for _, k := range Kinds {
		l := instrument.Labels{"kind": string(k)}
		p.mCaptures[k] = reg.Counter("caladrius_profile_captures_total", l)
		p.mSamples[k] = reg.Counter("caladrius_profile_samples_total", l)
		p.mDelta[k] = reg.Gauge("caladrius_profile_top_regression_delta", l)
	}
	if o.BaselinePath != "" {
		b, err := loadBaseline(o.BaselinePath)
		switch {
		case err == nil:
			p.baseline = b
			o.Logger.Info("profiler: loaded baseline", "path", o.BaselinePath, "created_at", b.CreatedAt)
		case errors.Is(err, os.ErrNotExist):
			// First run: the baseline auto-establishes after the first
			// completed window and is persisted then.
		default:
			return nil, err
		}
	}
	return p, nil
}

// Run captures every Options.Interval until ctx is cancelled.
func (p *Profiler) Run(ctx context.Context) {
	t := time.NewTicker(p.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := p.CaptureOnce(); err != nil {
				p.opts.Logger.Warn("profiler: capture round", "err", err)
			}
		}
	}
}

// CaptureOnce runs one capture round: every kind is captured through
// the Source, parsed, and folded into the current epoch window; the
// regression gauges are refreshed afterwards. Returns the first
// capture/parse error, after attempting all kinds.
func (p *Profiler) CaptureOnce() error {
	start := p.opts.Now()
	var firstErr error
	for _, kind := range Kinds {
		data, err := p.opts.Source(kind)
		var prof *Profile
		if err == nil {
			prof, err = Parse(data)
		}
		if err != nil {
			p.mErrors.Inc()
			p.mu.Lock()
			p.lastErr[kind] = err.Error()
			p.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", kind, err)
			}
			continue
		}
		p.mu.Lock()
		p.rotateLocked(p.opts.Now())
		tbl := p.cur.tables[kind]
		before := tbl.Samples
		tbl.Fold(prof)
		folded := tbl.Samples - before
		delete(p.lastErr, kind)
		p.mu.Unlock()
		p.mCaptures[kind].Inc()
		if folded > 0 {
			p.mSamples[kind].Add(float64(folded))
		}
	}
	end := p.opts.Now()
	p.mDur.Observe(end.Sub(start).Seconds())
	p.mDuty.Set(end.Sub(start).Seconds() / p.opts.Interval.Seconds())
	p.mu.Lock()
	p.lastCap = end
	p.mu.Unlock()
	p.refreshMetrics(end)
	return firstErr
}

// rotateLocked advances the epoch window ring to now, completing the
// current window when it has aged past epoch, and auto-establishes
// the baseline after the first window completes.
func (p *Profiler) rotateLocked(now time.Time) {
	if p.cur == nil {
		p.cur = newWindow(now)
		return
	}
	if now.Sub(p.cur.start) < epoch {
		return
	}
	// Auto-establish the baseline from the view that includes the
	// completing window, before it leaves the diff span.
	if p.baseline == nil {
		p.setBaselineLocked(now, true)
	}
	p.ring = append(p.ring, p.cur)
	if len(p.ring) > windowCap {
		p.ring = p.ring[len(p.ring)-windowCap:]
	}
	p.cur = newWindow(now)
}

// mergedLocked merges the diffWindows most recent windows (the one
// being filled plus the newest completed ones) for kind.
func (p *Profiler) mergedLocked(kind Kind) *Table {
	out := NewTable()
	n := diffWindows - 1
	if n > len(p.ring) {
		n = len(p.ring)
	}
	for _, w := range p.ring[len(p.ring)-n:] {
		out.Merge(w.tables[kind])
	}
	if p.cur != nil {
		out.Merge(p.cur.tables[kind])
	}
	return out
}

// setBaselineLocked snapshots the same merged recent view diffs are
// computed over — so re-baselining accepts the current profile and
// zeroes the regression delta — and persists it when a path is
// configured.
func (p *Profiler) setBaselineLocked(now time.Time, auto bool) {
	b := &Baseline{Version: BaselineVersion, CreatedAt: now, Auto: auto, Kinds: make(map[Kind]baselineKind, len(Kinds))}
	for _, kind := range Kinds {
		t := p.mergedLocked(kind)
		bk := baselineKind{Total: t.Total, Samples: t.Samples, Unit: t.Unit}
		if t.Total > 0 {
			for _, fs := range t.Funcs(baselineFuncsCap) {
				bk.Funcs = append(bk.Funcs, BaselineFunc{
					Function: fs.Function,
					FlatFrac: float64(fs.Flat) / float64(t.Total),
					CumFrac:  float64(fs.Cum) / float64(t.Total),
				})
			}
		}
		b.Kinds[kind] = bk
	}
	p.baseline = b
	if p.opts.BaselinePath != "" {
		if err := saveBaseline(p.opts.BaselinePath, b); err != nil {
			p.opts.Logger.Warn("profiler: persist baseline", "path", p.opts.BaselinePath, "err", err)
		}
	}
	p.opts.Logger.Info("profiler: baseline established", "auto", auto, "at", now)
}

// SetBaseline re-baselines from the currently retained windows (e.g.
// after an accepted performance change) and returns its metadata.
func (p *Profiler) SetBaseline() BaselineMeta {
	now := p.opts.Now()
	p.mu.Lock()
	p.setBaselineLocked(now, false)
	meta := p.baselineMetaLocked()
	p.mu.Unlock()
	p.refreshMetrics(now)
	return *meta
}

func (p *Profiler) baselineMetaLocked() *BaselineMeta {
	if p.baseline == nil {
		return nil
	}
	n := 0
	for _, bk := range p.baseline.Kinds {
		n += len(bk.Funcs)
	}
	return &BaselineMeta{Version: p.baseline.Version, CreatedAt: p.baseline.CreatedAt, Auto: p.baseline.Auto, Funcs: n}
}

// diffLocked computes the regression diff for kind against the active
// baseline; nil when no baseline exists yet.
func (p *Profiler) diffLocked(kind Kind, n int) *Diff {
	if p.baseline == nil {
		return nil
	}
	cur := p.mergedLocked(kind)
	d := &Diff{Kind: kind, Total: cur.Total, Samples: cur.Samples, Unit: cur.Unit, MinSamples: minSamples}
	if cur.Samples < minSamples {
		d.Guarded = true
		return d
	}
	bk := p.baseline.Kinds[kind]
	base := make(map[string]BaselineFunc, len(bk.Funcs))
	for _, bf := range bk.Funcs {
		base[bf.Function] = bf
	}
	seen := make(map[string]bool, len(base))
	for _, fs := range cur.Funcs(0) {
		bf := base[fs.Function]
		seen[fs.Function] = true
		e := DiffEntry{
			Function: fs.Function,
			BaseFlat: bf.FlatFrac,
			BaseCum:  bf.CumFrac,
			CurFlat:  float64(fs.Flat) / float64(cur.Total),
			CurCum:   float64(fs.Cum) / float64(cur.Total),
		}
		e.DeltaFlat = e.CurFlat - e.BaseFlat
		e.DeltaCum = e.CurCum - e.BaseCum
		d.Entries = append(d.Entries, e)
	}
	// Functions that vanished since the baseline still matter for the
	// report (negative delta), though they never rank as regressions.
	for _, bf := range bk.Funcs {
		if seen[bf.Function] {
			continue
		}
		d.Entries = append(d.Entries, DiffEntry{
			Function: bf.Function,
			BaseFlat: bf.FlatFrac, BaseCum: bf.CumFrac,
			DeltaFlat: -bf.FlatFrac, DeltaCum: -bf.CumFrac,
		})
	}
	sort.Slice(d.Entries, func(i, j int) bool {
		if d.Entries[i].DeltaFlat != d.Entries[j].DeltaFlat {
			return d.Entries[i].DeltaFlat > d.Entries[j].DeltaFlat
		}
		return d.Entries[i].Function < d.Entries[j].Function
	})
	if n > 0 && len(d.Entries) > n {
		d.Entries = d.Entries[:n]
	}
	return d
}

// refreshMetrics recomputes the regression gauges and ring/baseline
// gauges after a capture or baseline swap.
func (p *Profiler) refreshMetrics(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, kind := range Kinds {
		delta := 0.0
		if d := p.diffLocked(kind, 1); d != nil {
			delta = d.TopDelta()
		}
		p.mDelta[kind].Set(delta)
	}
	p.mWindows.Set(float64(len(p.ring)))
	if p.baseline != nil {
		p.mBaseAge.Set(now.Sub(p.baseline.CreatedAt).Seconds())
	}
}

// Top returns the merged recent per-function table for kind.
func (p *Profiler) Top(kind Kind, n int) (funcs []FuncStat, total int64, samples int64, unit string) {
	if n <= 0 {
		n = topK
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.mergedLocked(kind)
	return t.Funcs(n), t.Total, t.Samples, t.Unit
}

// Flame returns the merged recent flame stacks for kind.
func (p *Profiler) Flame(kind Kind, n int) (stacks []StackStat, total int64, unit string) {
	if n <= 0 {
		n = topK
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.mergedLocked(kind)
	return t.Stacks(n), t.Total, t.Unit
}

// DiffKind returns the regression diff for kind, or nil when no
// baseline has been established yet.
func (p *Profiler) DiffKind(kind Kind, n int) *Diff {
	if n <= 0 {
		n = topK
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.diffLocked(kind, n)
}

// Status returns the queryable profiler summary.
func (p *Profiler) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Status{
		Interval:        p.opts.Interval.String(),
		CPUWindow:       CPUWindow.String(),
		Epoch:           epoch.String(),
		WindowCap:       windowCap,
		DiffWindows:     diffWindows,
		TopK:            topK,
		WindowsRetained: len(p.ring),
		Captures:        make(map[Kind]uint64, len(Kinds)),
		Samples:         make(map[Kind]int64, len(Kinds)),
		TopRegression:   make(map[Kind]float64, len(Kinds)),
		CaptureErrors:   uint64(p.mErrors.Value()),
		Baseline:        p.baselineMetaLocked(),
		BaselinePath:    p.opts.BaselinePath,
		LastDuty:        p.mDuty.Value(),
	}
	if p.cur != nil {
		t := p.cur.start
		st.WindowStart = &t
	}
	if !p.lastCap.IsZero() {
		t := p.lastCap
		st.LastCapture = &t
	}
	for _, kind := range Kinds {
		st.Captures[kind] = uint64(p.mCaptures[kind].Value())
		st.Samples[kind] = p.mergedLocked(kind).Samples
		if d := p.diffLocked(kind, 1); d != nil {
			st.TopRegression[kind] = d.TopDelta()
		}
	}
	if len(p.lastErr) > 0 {
		st.LastErrors = make(map[Kind]string, len(p.lastErr))
		for k, v := range p.lastErr {
			st.LastErrors[k] = v
		}
	}
	return st
}

// DiffArtifact renders the full regression report (every kind, up to
// topK entries each) as indented JSON — the incident recorder attaches
// it to bundles as profile-diff.json.
func (p *Profiler) DiffArtifact() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	report := struct {
		GeneratedAt time.Time     `json:"generated_at"`
		Baseline    *BaselineMeta `json:"baseline,omitempty"`
		Diffs       []*Diff       `json:"diffs"`
	}{GeneratedAt: p.opts.Now(), Baseline: p.baselineMetaLocked()}
	for _, kind := range Kinds {
		if d := p.diffLocked(kind, topK); d != nil {
			report.Diffs = append(report.Diffs, d)
		}
	}
	return json.MarshalIndent(report, "", "  ")
}

// loadBaseline reads and validates a persisted baseline snapshot. It
// holds what setBaselineLocked writes: exactly the Kinds, shares in
// [0, 1], non-negative totals, at most baselineFuncsCap distinct named
// functions per kind. Anything else would diff into deltas outside
// [−1, 1] (a live function against flat_frac −3 "regresses" by 4) or
// turn every function of a missing kind into a regression.
func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("profiler: baseline %s: %w", path, err)
	}
	bad := func(format string, args ...any) (*Baseline, error) {
		return nil, fmt.Errorf("profiler: baseline %s: %s", path, fmt.Sprintf(format, args...))
	}
	if b.Version != BaselineVersion {
		return bad("version %d, want %d", b.Version, BaselineVersion)
	}
	if len(b.Kinds) != len(Kinds) {
		return bad("%d kinds, want %v", len(b.Kinds), Kinds)
	}
	for _, kind := range Kinds {
		bk, ok := b.Kinds[kind]
		switch {
		case !ok:
			return bad("no %s kind", kind)
		case bk.Total < 0 || bk.Samples < 0:
			return bad("%s: total %d, samples %d", kind, bk.Total, bk.Samples)
		case len(bk.Funcs) > baselineFuncsCap:
			return bad("%s: %d functions, cap %d", kind, len(bk.Funcs), baselineFuncsCap)
		}
		seen := make(map[string]bool, len(bk.Funcs))
		for _, f := range bk.Funcs {
			if f.Function == "" || seen[f.Function] {
				return bad("%s: empty or duplicate function %q", kind, f.Function)
			}
			seen[f.Function] = true
			if !(f.FlatFrac >= 0 && f.FlatFrac <= 1 && f.CumFrac >= 0 && f.CumFrac <= 1) {
				return bad("%s: %s shares flat %g, cum %g outside [0, 1]", kind, f.Function, f.FlatFrac, f.CumFrac)
			}
		}
	}
	return &b, nil
}

// saveBaseline persists b atomically.
func saveBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
