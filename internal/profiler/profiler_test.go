package profiler

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"caladrius/internal/telemetry"
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

func newTestProfiler(t *testing.T, clock *fakeClock, src Source, mutate func(*Options)) *Profiler {
	t.Helper()
	opts := Options{
		Registry:    telemetry.NewRegistry(),
		Interval:    10 * time.Second,
		Epoch:       time.Minute,
		Windows:     3,
		DiffWindows: 1,
		TopK:        10,
		MinSamples:  1,
		Now:         clock.Now,
		Source:      src,
	}
	if mutate != nil {
		mutate(&opts)
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWindowRingRetention drives epoch rotation with a fake clock and
// checks the ring stays bounded and old windows fall out of the
// merged query view.
func TestWindowRingRetention(t *testing.T) {
	clock := newFakeClock()
	src := &syntheticSource{}
	p := newTestProfiler(t, clock, src.source, nil)

	// Six epochs, each folding a distinctly named function.
	names := []string{"e0", "e1", "e2", "e3", "e4", "e5"}
	for _, name := range names {
		src.set(cpuProfileBytes(t, true, map[string]int64{"main;" + name: 100}))
		if err := p.CaptureOnce(); err != nil {
			t.Fatalf("capture %s: %v", name, err)
		}
		clock.Advance(time.Minute + time.Second)
	}
	st := p.Status()
	if st.WindowsRetained > 3 {
		t.Fatalf("ring holds %d completed windows, cap is 3", st.WindowsRetained)
	}
	if st.WindowsRetained != 3 {
		t.Fatalf("ring holds %d completed windows, want 3 after 6 epochs", st.WindowsRetained)
	}
	// DiffWindows=1: only the window being filled (e5) is queried;
	// evicted epochs must be invisible.
	funcs, _, _, _ := p.Top(KindCPU, 0)
	seen := map[string]bool{}
	for _, fs := range funcs {
		seen[fs.Function] = true
	}
	if seen["e0"] || seen["e1"] {
		t.Fatalf("evicted-epoch functions still visible: %v", seen)
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
	// Ring holds the 3 newest completed windows (e2..e4) plus the one
	// being filled (e5); e0/e1 were evicted.
	for _, want := range []string{"e2", "e3", "e4", "e5"} {
		if !wide[want] {
			t.Fatalf("retained window function %s missing from merged view %v", want, wide)
		}
	}
	for _, gone := range []string{"e0", "e1"} {
		if wide[gone] {
			t.Fatalf("evicted window function %s still in merged view", gone)
		}
	}
}

// TestBaselineDiff exercises auto-baselining, regression ranking and
// the MinSamples guard.
func TestBaselineDiff(t *testing.T) {
	clock := newFakeClock()
	src := &syntheticSource{}
	p := newTestProfiler(t, clock, src.source, nil)

	// Healthy epoch: steady dominates.
	src.set(cpuProfileBytes(t, true, map[string]int64{"main;steady": 900, "main;other": 100}))
	if err := p.CaptureOnce(); err != nil {
		t.Fatal(err)
	}
	if p.Status().Baseline != nil {
		t.Fatal("baseline before any completed window")
	}
	clock.Advance(61 * time.Second)

	// Regressed epoch: hotNew eats 60% of the profile. The capture also
	// rotates the first window out, establishing the auto baseline.
	src.set(cpuProfileBytes(t, true, map[string]int64{"main;steady": 300, "main;hotNew": 600, "main;other": 100}))
	if err := p.CaptureOnce(); err != nil {
		t.Fatal(err)
	}
	st := p.Status()
	if st.Baseline == nil || !st.Baseline.Auto {
		t.Fatalf("auto baseline not established: %+v", st.Baseline)
	}
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

	// MinSamples guard: a near-empty window reports a guarded diff and
	// a zero delta even against a real baseline.
	clock.Advance(61 * time.Second)
	src.set(cpuProfileBytes(t, true, map[string]int64{"main;blip": 1}))
	p2 := newTestProfiler(t, clock, src.source, func(o *Options) { o.MinSamples = 10 })
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
	if _, err := New(Options{Registry: telemetry.NewRegistry(), BaselinePath: cutPath, Source: src.source, Now: clock.Now}); err == nil {
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
	if _, err := New(Options{Registry: telemetry.NewRegistry(), BaselinePath: path, Source: src.source, Now: clock.Now}); err == nil {
		t.Fatal("New accepted a future-versioned baseline")
	}
}

// TestDiffArtifact checks the incident-bundle artifact renders valid
// JSON naming the regressed function.
func TestDiffArtifact(t *testing.T) {
	clock := newFakeClock()
	src := &syntheticSource{}
	p := newTestProfiler(t, clock, src.source, nil)
	src.set(cpuProfileBytes(t, true, map[string]int64{"main;steady": 900}))
	if err := p.CaptureOnce(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(61 * time.Second)
	src.set(cpuProfileBytes(t, true, map[string]int64{"main;hotNew": 900}))
	if err := p.CaptureOnce(); err != nil {
		t.Fatal(err)
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
