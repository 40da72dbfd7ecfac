package incident

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

// fakeClock is a mutex-guarded clock shared between the test goroutine
// and the recorder's capture worker.
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

func testRule() telemetry.Rule {
	return telemetry.Rule{
		Name:        "model-accuracy-drift",
		Description: "rolling MAPE above threshold",
		Metric:      "caladrius_model_mape",
		Window:      15 * time.Minute,
		Agg:         tsdb.AggLast,
		Op:          telemetry.OpGreater,
		Threshold:   0.08,
	}
}

func testAlert(rule telemetry.Rule, at time.Time) telemetry.Alert {
	v := 0.31
	return telemetry.Alert{
		Rule:        rule.Name,
		Description: rule.Description,
		State:       telemetry.StateFiring,
		Value:       &v,
		Threshold:   rule.Threshold,
		Op:          string(rule.Op),
		Window:      rule.Window.String(),
		Since:       &at,
		EvaluatedAt: at,
	}
}

// newTestRecorder builds a fully-sourced recorder with a fast CPU
// profile window and a fake clock.
func newTestRecorder(t *testing.T, clock *fakeClock) (*Recorder, *instrument.Registry, *telemetry.LogRing, *telemetry.Tracer, *tsdb.DB) {
	t.Helper()
	reg := instrument.NewRegistry()
	logs := telemetry.NewLogRing(64)
	tracer := telemetry.NewTracer(16, nil)
	db := tsdb.New(24 * time.Hour)
	rec, err := New(Options{
		Dir:        filepath.Join(t.TempDir(), "incidents"),
		Registry:   reg,
		History:    db,
		Logs:       logs,
		Tracer:     tracer,
		Cooldown:   5 * time.Minute,
		CPUProfile: 20 * time.Millisecond,
		Now:        clock.Now,
		Logger:     slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)
	return rec, reg, logs, tracer, db
}

func counterValue(t *testing.T, reg *instrument.Registry, name string, labels instrument.Labels) float64 {
	t.Helper()
	return reg.Counter(name, labels).Value()
}

func TestCaptureNowBundle(t *testing.T) {
	clock := newFakeClock()
	rec, reg, logs, tracer, _ := newTestRecorder(t, clock)

	logs.Append(clock.Now(), slog.LevelInfo, "http request", "req-1", []byte("status=200"))
	sp := tracer.Start("req-1", "performance")
	sp.End()

	m, err := rec.CaptureNow()
	if err != nil {
		t.Fatal(err)
	}
	if m.Trigger != TriggerManual || m.Version != BundleVersion {
		t.Errorf("manifest = %+v", m)
	}
	wantArtifacts := []string{
		ArtifactCPU, ArtifactHeap, ArtifactGoroutine, ArtifactMutex,
		ArtifactBlock, ArtifactLogs, ArtifactSpans,
	}
	have := map[string]bool{}
	for _, a := range m.Artifacts {
		have[a.Name] = true
		if a.Bytes <= 0 {
			t.Errorf("artifact %s is empty", a.Name)
		}
		if _, err := os.Stat(filepath.Join(rec.Dir(), m.ID, a.Name)); err != nil {
			t.Errorf("artifact %s: %v", a.Name, err)
		}
	}
	for _, name := range wantArtifacts {
		if !have[name] {
			t.Errorf("bundle missing %s (notes: %v)", name, m.Notes)
		}
	}
	if m.LogRecords != 1 || m.SpanTraces != 1 {
		t.Errorf("log records = %d, span traces = %d", m.LogRecords, m.SpanTraces)
	}
	// "req-1" appears in both the log ring and the span ring: joined.
	if len(m.JoinedTraceIDs) != 1 || m.JoinedTraceIDs[0] != "req-1" {
		t.Errorf("joined traces = %v", m.JoinedTraceIDs)
	}
	// Manifest presence marks completion and round-trips from disk.
	data, err := os.ReadFile(filepath.Join(rec.Dir(), m.ID, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Manifest
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.ID != m.ID || len(onDisk.Artifacts) != len(m.Artifacts) {
		t.Errorf("on-disk manifest = %+v", onDisk)
	}
	if got, ok := rec.Get(m.ID); !ok || got.ID != m.ID {
		t.Errorf("Get(%s) = %+v, %v", m.ID, got, ok)
	}
	if path, ok := rec.ArtifactPath(m.ID, ArtifactHeap); !ok || path == "" {
		t.Errorf("ArtifactPath = %q, %v", path, ok)
	}
	if _, ok := rec.ArtifactPath(m.ID, "../../etc/passwd"); ok {
		t.Error("ArtifactPath resolved an unlisted name")
	}
	if got := counterValue(t, reg, "caladrius_incident_captures_total", instrument.Labels{"trigger": TriggerManual}); got != 1 {
		t.Errorf("manual captures = %g", got)
	}
}

func TestFiringHookCooldown(t *testing.T) {
	clock := newFakeClock()
	rec, reg, _, _, db := newTestRecorder(t, clock)
	rule := testRule()
	for i := -20; i <= 0; i++ {
		db.Handle(rule.Metric, nil).Append(clock.Now().Add(time.Duration(i)*time.Minute), 0.3)
	}
	hook := rec.FiringHook()

	hook(rule, testAlert(rule, clock.Now()))
	rec.Flush()
	if n := len(rec.List()); n != 1 {
		t.Fatalf("bundles after first fire = %d", n)
	}

	// A flap inside the cooldown is debounced.
	clock.Advance(time.Minute)
	hook(rule, testAlert(rule, clock.Now()))
	rec.Flush()
	if n := len(rec.List()); n != 1 {
		t.Fatalf("bundles after debounced fire = %d", n)
	}
	if got := counterValue(t, reg, "caladrius_incident_suppressed_total", nil); got != 1 {
		t.Errorf("suppressed = %g", got)
	}

	// Past the cooldown the same rule captures again.
	clock.Advance(5 * time.Minute)
	hook(rule, testAlert(rule, clock.Now()))
	rec.Flush()
	if n := len(rec.List()); n != 2 {
		t.Fatalf("bundles after cooldown elapsed = %d", n)
	}
	if got := counterValue(t, reg, "caladrius_incident_captures_total", instrument.Labels{"trigger": TriggerSLO}); got != 2 {
		t.Errorf("slo captures = %g", got)
	}

	// The SLO-triggered bundle carries the alert and a metrics window
	// spanning rule window + lookback.
	m := rec.List()[0]
	if m.Rule != rule.Name || m.Alert == nil || m.Alert.Value == nil || *m.Alert.Value != 0.31 {
		t.Errorf("manifest = %+v", m)
	}
	if m.Metrics == nil || m.Metrics.Metric != rule.Metric || m.Metrics.Points == 0 {
		t.Fatalf("metrics window = %+v", m.Metrics)
	}
	if got := m.Metrics.End.Sub(m.Metrics.Start); got != rule.Window+5*time.Minute {
		t.Errorf("metrics span = %s", got)
	}
	foundMetrics := false
	for _, a := range m.Artifacts {
		if a.Name == ArtifactMetrics {
			foundMetrics = true
		}
	}
	if !foundMetrics {
		t.Errorf("no metrics artifact: %+v", m.Artifacts)
	}
}

func TestCooldownIsPerRule(t *testing.T) {
	clock := newFakeClock()
	rec, _, _, _, _ := newTestRecorder(t, clock)
	hook := rec.FiringHook()
	r1, r2 := testRule(), testRule()
	r2.Name = "http-p95-latency"
	hook(r1, testAlert(r1, clock.Now()))
	hook(r2, testAlert(r2, clock.Now()))
	rec.Flush()
	if n := len(rec.List()); n != 2 {
		t.Fatalf("bundles = %d, want 2 (cooldown must not couple rules)", n)
	}
}

func TestRetentionPrunesOldest(t *testing.T) {
	clock := newFakeClock()
	rec, _, _, _, _ := newTestRecorder(t, clock)
	var ids []string
	for i := 0; i < maxBundles+1; i++ {
		m, err := rec.CaptureNow()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
		clock.Advance(time.Second)
	}
	list := rec.List()
	if len(list) != maxBundles {
		t.Fatalf("retained = %d, want %d", len(list), maxBundles)
	}
	// Newest first.
	if list[0].ID != ids[maxBundles] || list[1].ID != ids[maxBundles-1] {
		t.Errorf("list = [%s %s …], want [%s %s …]", list[0].ID, list[1].ID, ids[maxBundles], ids[maxBundles-1])
	}
	if _, err := os.Stat(filepath.Join(rec.Dir(), ids[0])); !os.IsNotExist(err) {
		t.Errorf("evicted bundle dir still on disk: %v", err)
	}
}

func TestRestartReindexesBundles(t *testing.T) {
	clock := newFakeClock()
	rec, _, _, _, _ := newTestRecorder(t, clock)
	m1, err := rec.CaptureNow()
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	m2, err := rec.CaptureNow()
	if err != nil {
		t.Fatal(err)
	}
	dir := rec.Dir()
	rec.Close()

	// An incomplete bundle (no manifest) must be ignored.
	if err := os.MkdirAll(filepath.Join(dir, "half-written"), 0o755); err != nil {
		t.Fatal(err)
	}

	rec2, err := New(Options{Dir: dir, Registry: instrument.NewRegistry(), History: tsdb.New(time.Hour),
		Logs: telemetry.NewLogRing(8), Tracer: telemetry.NewTracer(8, nil), Cooldown: 5 * time.Minute, Now: clock.Now,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	list := rec2.List()
	if len(list) != 2 || list[0].ID != m2.ID || list[1].ID != m1.ID {
		t.Fatalf("reindexed = %+v", list)
	}
}

func TestNewRefusesMissingDependencies(t *testing.T) {
	full := func() Options {
		return Options{Dir: t.TempDir(), Registry: instrument.NewRegistry(), History: tsdb.New(time.Hour),
			Logs: telemetry.NewLogRing(8), Tracer: telemetry.NewTracer(8, nil), Cooldown: 5 * time.Minute,
			Now: time.Now, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	}
	for want, unset := range map[string]func(*Options){
		"bundle directory":   func(o *Options) { o.Dir = "" },
		"telemetry registry": func(o *Options) { o.Registry = nil },
		"history store":      func(o *Options) { o.History = nil },
		"log ring":           func(o *Options) { o.Logs = nil },
		"tracer":             func(o *Options) { o.Tracer = nil },
		"positive cooldown":  func(o *Options) { o.Cooldown = -time.Second },
		"clock":              func(o *Options) { o.Now = nil },
		"logger":             func(o *Options) { o.Logger = nil },
	} {
		opts := full()
		unset(&opts)
		if rec, err := New(opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("New without a %s: err = %v", want, err)
			if rec != nil {
				rec.Close()
			}
		}
	}
}

func TestClosedRecorderRejectsWork(t *testing.T) {
	clock := newFakeClock()
	rec, _, _, _, _ := newTestRecorder(t, clock)
	hook := rec.FiringHook()
	rec.Close()
	if _, err := rec.CaptureNow(); err == nil {
		t.Error("CaptureNow on closed recorder succeeded")
	}
	rule := testRule()
	hook(rule, testAlert(rule, clock.Now())) // must not panic or enqueue
	if n := len(rec.List()); n != 0 {
		t.Errorf("bundles = %d", n)
	}
}

// writeBundle leaves a bundle directory named id holding manifest m, the
// way a previous process (or anyone with write access) could.
func writeBundle(t testing.TB, dir, id string, m Manifest) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id, manifestName), mustJSON(t, m), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRefusesUnsafeManifests: at restart a manifest is indexed
// only if it has this layout's version, names its own directory and
// lists artifacts that are file names inside it. A manifest listing
// "../x" used to be indexed, and ArtifactPath resolved it outside the
// bundle directory.
func TestRestartRefusesUnsafeManifests(t *testing.T) {
	dir := t.TempDir()
	ok := func(id string) Manifest {
		return Manifest{Version: BundleVersion, ID: id, Trigger: TriggerManual, Artifacts: []Artifact{{Name: ArtifactLogs}}}
	}
	writeBundle(t, dir, "good", ok("good"))
	for _, name := range []string{"../x", "..", ".", "", "a/b", `a\b`} {
		m := ok("escape")
		m.Artifacts = append(m.Artifacts, Artifact{Name: name})
		writeBundle(t, dir, "escape", m)
		rec, err := New(Options{Dir: dir, Registry: instrument.NewRegistry(), History: tsdb.New(time.Hour),
			Logs: telemetry.NewLogRing(8), Tracer: telemetry.NewTracer(8, nil), Cooldown: 5 * time.Minute, Now: time.Now,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		if list := rec.List(); len(list) != 1 || list[0].ID != "good" {
			t.Errorf("artifact %q: indexed %+v, want only the good bundle", name, list)
		}
		if p, found := rec.ArtifactPath("escape", name); found {
			t.Errorf("artifact %q resolves to %s", name, p)
		}
		rec.Close()
	}
	for name, m := range map[string]Manifest{
		"old-version": {Version: BundleVersion + 1, ID: "old-version"},
		"unversioned": {ID: "unversioned"},
		"borrowed-id": ok("good"),
	} {
		if _, err := readManifest(mustJSON(t, m), name); err == nil {
			t.Errorf("%s: manifest %+v accepted", name, m)
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzReadManifest: whatever a bundle directory's manifest.json holds,
// reading it never panics, an accepted manifest names its directory and
// only file names inside it, and restart indexes the bundle exactly when
// readManifest accepts its manifest.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"id":"b","captured_at":"2026-08-08T12:00:00Z","trigger":"manual","artifacts":[{"name":"logs.json","bytes":2}]}`))
	f.Add([]byte(`{"version":1,"id":"b","artifacts":[{"name":"../x"}]}`))
	f.Add([]byte(`{"version":0,"id":"b"}`))
	f.Add([]byte(`{"version":1,"id":"b","artifacts":null,"alert":{"value":null}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		const id = "b"
		m, readErr := readManifest(data, id)
		if readErr == nil {
			if m.ID != id || m.Version != BundleVersion {
				t.Fatalf("accepted manifest id %q version %d", m.ID, m.Version)
			}
			for _, a := range m.Artifacts {
				if p := filepath.Join("root", id, a.Name); filepath.Dir(p) != filepath.Join("root", id) {
					t.Fatalf("accepted artifact %q resolves to %s", a.Name, p)
				}
			}
		}
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := &Recorder{opts: Options{Dir: dir, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}}
		if err := r.loadExisting(); err != nil {
			t.Fatal(err)
		}
		if indexed := len(r.bundles) == 1; indexed != (readErr == nil) {
			t.Fatalf("indexed = %v, readManifest error = %v", indexed, readErr)
		}
	})
}
