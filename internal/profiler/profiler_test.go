package profiler

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"caladrius/internal/instrument"
)

// allWindowsLocked merges every retained window for kind: the widest
// view the ring can answer.
func (p *Profiler) allWindowsLocked(kind Kind) *Table {
	out := NewTable()
	for _, w := range p.ring {
		out.Merge(w.tables[kind])
	}
	if p.cur != nil {
		out.Merge(p.cur.tables[kind])
	}
	return out
}

// fakeClock is a mutex-guarded manual clock for driving epoch
// rotation deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// syntheticSource serves the same synthetic profile bytes for every
// kind; swap the payload with set().
type syntheticSource struct {
	mu   sync.Mutex
	data []byte
}

func (s *syntheticSource) set(data []byte) {
	s.mu.Lock()
	s.data = data
	s.mu.Unlock()
}

func (s *syntheticSource) source(Kind) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data, nil
}

// testOptions are the options every test profiler starts from.
func testOptions(clock *fakeClock, src Source) Options {
	return Options{Registry: instrument.NewRegistry(), Interval: 10 * time.Second, Source: src, Now: clock.Now,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))}
}

func newTestProfiler(t testing.TB, clock *fakeClock, src Source, mutate func(*Options)) *Profiler {
	t.Helper()
	opts := testOptions(clock, src)
	if mutate != nil {
		mutate(&opts)
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRefusesMissingOptions(t *testing.T) {
	for field, unset := range map[string]func(*Options){
		"Registry": func(o *Options) { o.Registry = nil },
		"Interval": func(o *Options) { o.Interval = -time.Second },
		"Now":      func(o *Options) { o.Now = nil },
		"Logger":   func(o *Options) { o.Logger = nil },
	} {
		opts := testOptions(newFakeClock(), (&syntheticSource{}).source)
		unset(&opts)
		if _, err := New(opts); err == nil || !strings.Contains(err.Error(), "Options."+field) {
			t.Errorf("no %s: err = %v, want it to name Options.%s", field, err, field)
		}
	}
}

// fillWindow folds stacks into p's current window minSamples times, so
// that any diff span holding the window clears the minSamples guard.
func fillWindow(t testing.TB, p *Profiler, src *syntheticSource, stacks map[string]int64) {
	t.Helper()
	src.set(cpuProfileBytes(t, true, stacks))
	for i := 0; i < minSamples; i++ {
		if err := p.CaptureOnce(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowRingRetention drives epoch rotation with a fake clock and
// checks the ring stays bounded and old windows fall out of the
// merged query view.
func TestWindowRingRetention(t *testing.T) {
	clock := newFakeClock()
	src := &syntheticSource{}
	p := newTestProfiler(t, clock, src.source, nil)

	// Two epochs more than the ring holds, each folding a distinctly
	// named function.
	const epochs = windowCap + 2
	name := func(i int) string { return fmt.Sprintf("e%d", i) }
	for i := 0; i < epochs; i++ {
		src.set(cpuProfileBytes(t, true, map[string]int64{"main;" + name(i): 100}))
		if err := p.CaptureOnce(); err != nil {
			t.Fatalf("capture %s: %v", name(i), err)
		}
		clock.Advance(epoch + time.Second)
	}
	st := p.Status()
	if st.WindowsRetained > windowCap {
		t.Fatalf("ring holds %d completed windows, cap is %d", st.WindowsRetained, windowCap)
	}
	if st.WindowsRetained != windowCap {
		t.Fatalf("ring holds %d completed windows, want %d after %d epochs", st.WindowsRetained, windowCap, epochs)
	}
	// Queries merge the window being filled and the diffWindows-1
	// newest completed ones; older epochs, evicted or not, must be
	// invisible.
	funcs, _, _, _ := p.Top(KindCPU, 0)
	seen := map[string]bool{}
	for _, fs := range funcs {
		seen[fs.Function] = true
	}
	for i := 0; i < epochs; i++ {
		if want := i >= epochs-diffWindows; seen[name(i)] != want {
			t.Fatalf("%s visible = %v, want %v: the query view is the %d newest windows (%v)", name(i), seen[name(i)], want, diffWindows, seen)
		}
	}

	// A wider merged view (all retained windows) must still see the
	// survivors but not the evicted epochs.
	p.mu.Lock()
	all := p.allWindowsLocked(KindCPU)
	p.mu.Unlock()
	wide := map[string]bool{}
	for _, fs := range all.Funcs(0) {
		wide[fs.Function] = true
	}
	// The ring holds the windowCap newest completed windows plus the
	// one being filled; the first epoch was evicted.
	for i := 0; i < epochs; i++ {
		if want := i >= epochs-1-windowCap; wide[name(i)] != want {
			t.Fatalf("%s in merged view = %v, want %v (%v)", name(i), wide[name(i)], want, wide)
		}
	}
}

// TestBaselineDiff exercises auto-baselining, regression ranking and
// the minSamples guard.
func TestBaselineDiff(t *testing.T) {
	clock := newFakeClock()
	src := &syntheticSource{}
	p := newTestProfiler(t, clock, src.source, nil)
	regressed := map[string]int64{"main;steady": 300, "main;hotNew": 600, "main;other": 100}

	// Healthy epoch: steady dominates.
	fillWindow(t, p, src, map[string]int64{"main;steady": 900, "main;other": 100})
	if p.Status().Baseline != nil {
		t.Fatal("baseline before any completed window")
	}
	clock.Advance(61 * time.Second)

	// Regressed epoch: hotNew eats 60% of the profile. The capture also
	// rotates the first window out, establishing the auto baseline.
	fillWindow(t, p, src, regressed)
	st := p.Status()
	if st.Baseline == nil || !st.Baseline.Auto {
		t.Fatalf("auto baseline not established: %+v", st.Baseline)
	}
	// The diff span still holds the healthy window, which halves
	// hotNew's share.
	if delta := p.DiffKind(KindCPU, 5).TopDelta(); delta < 0.25 || delta > 0.35 {
		t.Fatalf("hotNew delta %f over one healthy and one regressed window, want ~0.3", delta)
	}
	// Once regressed epochs fill the diff span, the regression shows
	// at full strength.
	for i := 1; i < diffWindows; i++ {
		clock.Advance(61 * time.Second)
		fillWindow(t, p, src, regressed)
	}
	st = p.Status()
	d := p.DiffKind(KindCPU, 5)
	if d == nil || len(d.Entries) == 0 {
		t.Fatalf("no diff: %+v", d)
	}
	if d.Entries[0].Function != "hotNew" {
		t.Fatalf("top regression %q, want hotNew (%+v)", d.Entries[0].Function, d.Entries)
	}
	if delta := d.Entries[0].DeltaFlat; delta < 0.55 || delta > 0.65 {
		t.Fatalf("hotNew delta %f, want ~0.6", delta)
	}
	if got := st.TopRegression[KindCPU]; got < 0.55 || got > 0.65 {
		t.Fatalf("status top regression %f, want ~0.6", got)
	}
	if g := p.mDelta[KindCPU].Value(); g < 0.55 || g > 0.65 {
		t.Fatalf("gauge %f, want ~0.6", g)
	}

	// Re-baseline at the regressed profile: the delta collapses.
	meta := p.SetBaseline()
	if meta.Auto {
		t.Fatal("explicit re-baseline still marked auto")
	}
	if d := p.DiffKind(KindCPU, 5); d.TopDelta() > 0.01 {
		t.Fatalf("delta %f after re-baseline, want ~0", d.TopDelta())
	}

	// minSamples guard: a near-empty window reports a guarded diff and
	// a zero delta even against a real baseline.
	clock.Advance(61 * time.Second)
	src.set(cpuProfileBytes(t, true, map[string]int64{"main;blip": 1}))
	p2 := newTestProfiler(t, clock, src.source, nil)
	if err := p2.CaptureOnce(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(61 * time.Second)
	if err := p2.CaptureOnce(); err != nil {
		t.Fatal(err)
	}
	d2 := p2.DiffKind(KindCPU, 5)
	if d2 == nil || !d2.Guarded {
		t.Fatalf("diff not guarded on tiny window: %+v", d2)
	}
	if d2.TopDelta() != 0 {
		t.Fatalf("guarded diff delta %f, want 0", d2.TopDelta())
	}
}

// TestBaselinePersistence checks save/load round-trip, and that a
// truncated or future-versioned file is rejected.
func TestBaselinePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	clock := newFakeClock()
	src := &syntheticSource{}
	src.set(cpuProfileBytes(t, true, map[string]int64{"main;steady": 500}))

	p := newTestProfiler(t, clock, src.source, func(o *Options) { o.BaselinePath = path })
	if err := p.CaptureOnce(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(61 * time.Second)
	if err := p.CaptureOnce(); err != nil {
		t.Fatal(err)
	}
	if p.Status().Baseline == nil {
		t.Fatal("no baseline after completed window")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("baseline not persisted: %v", err)
	}

	// A fresh profiler loads it instead of re-baselining.
	p2 := newTestProfiler(t, clock, src.source, func(o *Options) { o.BaselinePath = path })
	st := p2.Status()
	if st.Baseline == nil {
		t.Fatal("persisted baseline not loaded")
	}
	if !st.Baseline.CreatedAt.Equal(p.Status().Baseline.CreatedAt) {
		t.Fatalf("loaded baseline CreatedAt %v != saved %v", st.Baseline.CreatedAt, p.Status().Baseline.CreatedAt)
	}

	// A file cut short anywhere is an error, never a panic or a baseline
	// with fewer functions: every proper prefix fails to load, and boot
	// refuses it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.json")
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if b, err := loadBaseline(cutPath); err == nil {
			t.Fatalf("cut at %d of %d: loaded baseline %+v from a truncated file", cut, len(data), b)
		}
	}
	opts := testOptions(clock, src.source)
	opts.BaselinePath = cutPath
	if _, err := New(opts); err == nil {
		t.Fatal("New accepted a truncated baseline")
	}

	// Future-versioned files are rejected with a clear error.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = BaselineVersion + 1
	data, _ = json.Marshal(raw)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.BaselinePath = path
	if _, err := New(opts); err == nil {
		t.Fatal("New accepted a future-versioned baseline")
	}
}

// validBaseline is a well-formed baseline over every kind.
func validBaseline() *Baseline {
	b := &Baseline{Version: BaselineVersion, Kinds: make(map[Kind]baselineKind, len(Kinds))}
	for _, k := range Kinds {
		b.Kinds[k] = baselineKind{Total: 1000, Samples: 10, Funcs: []BaselineFunc{
			{Function: "steady", FlatFrac: 0.9, CumFrac: 1},
			{Function: "other", FlatFrac: 0.1, CumFrac: 0.1},
		}}
	}
	return b
}

// editKind applies edit to one kind of b.
func editKind(b *Baseline, k Kind, edit func(*baselineKind)) {
	bk := b.Kinds[k]
	edit(&bk)
	b.Kinds[k] = bk
}

// hostileBaselines each break one rule a baseline file is held to.
var hostileBaselines = []struct {
	name string
	edit func(*Baseline)
}{
	{"negative flat share", func(b *Baseline) { b.Kinds[KindCPU].Funcs[0].FlatFrac = -3 }},
	{"flat share above one", func(b *Baseline) { b.Kinds[KindHeap].Funcs[1].FlatFrac = 1.5 }},
	{"negative cum share", func(b *Baseline) { b.Kinds[KindMutex].Funcs[1].CumFrac = -0.1 }},
	{"extra kind", func(b *Baseline) { b.Kinds["bogus"] = baselineKind{Total: -5} }},
	{"missing kind", func(b *Baseline) { delete(b.Kinds, KindGoroutine) }},
	{"unknown kind for a known one", func(b *Baseline) {
		b.Kinds["bogus"] = b.Kinds[KindHeap]
		delete(b.Kinds, KindHeap)
	}},
	{"negative total", func(b *Baseline) { editKind(b, KindCPU, func(bk *baselineKind) { bk.Total = -5 }) }},
	{"negative samples", func(b *Baseline) { editKind(b, KindHeap, func(bk *baselineKind) { bk.Samples = -1 }) }},
	{"empty function name", func(b *Baseline) { b.Kinds[KindCPU].Funcs[1].Function = "" }},
	{"duplicate function", func(b *Baseline) { b.Kinds[KindCPU].Funcs[1].Function = "steady" }},
	{"functions beyond the cap", func(b *Baseline) {
		editKind(b, KindGoroutine, func(bk *baselineKind) {
			bk.Funcs = nil
			for i := 0; i <= baselineFuncsCap; i++ {
				bk.Funcs = append(bk.Funcs, BaselineFunc{Function: fmt.Sprintf("f%d", i)})
			}
		})
	}},
}

// TestLoadBaselineRefusesHostile checks that boot refuses, naming the
// file, a baseline that would diff outside [−1, 1] or read a missing
// kind as a regression of its whole share.
func TestLoadBaselineRefusesHostile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	clock := newFakeClock()
	src := &syntheticSource{}
	if err := saveBaseline(path, validBaseline()); err != nil {
		t.Fatal(err)
	}
	newTestProfiler(t, clock, src.source, func(o *Options) { o.BaselinePath = path })
	for _, c := range hostileBaselines {
		b := validBaseline()
		c.edit(b)
		if err := saveBaseline(path, b); err != nil {
			t.Fatal(err)
		}
		opts := testOptions(clock, src.source)
		opts.BaselinePath = path
		_, err := New(opts)
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: New returned %v, want an error naming %s", c.name, err, path)
		}
	}
}

// TestDiffArtifact checks the incident-bundle artifact renders valid
// JSON naming the regressed function.
func TestDiffArtifact(t *testing.T) {
	clock := newFakeClock()
	src := &syntheticSource{}
	p := newTestProfiler(t, clock, src.source, nil)
	fillWindow(t, p, src, map[string]int64{"main;steady": 900})
	for i := 0; i < diffWindows; i++ {
		clock.Advance(61 * time.Second)
		fillWindow(t, p, src, map[string]int64{"main;hotNew": 900})
	}
	art, err := p.DiffArtifact()
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Baseline *BaselineMeta `json:"baseline"`
		Diffs    []*Diff       `json:"diffs"`
	}
	if err := json.Unmarshal(art, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v\n%s", err, art)
	}
	if report.Baseline == nil || len(report.Diffs) == 0 {
		t.Fatalf("artifact missing baseline or diffs: %s", art)
	}
	found := false
	for _, d := range report.Diffs {
		if d.Kind != KindCPU {
			continue
		}
		for _, e := range d.Entries {
			if e.Function == "hotNew" && e.DeltaFlat > 0.5 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("artifact does not name hotNew as the regression: %s", art)
	}
}
