// Package incident implements Caladrius' flight recorder: when an SLO
// fires (or an operator asks), it snapshots a versioned on-disk bundle
// of diagnostic evidence — CPU/heap/goroutine/mutex/block pprof
// profiles, the recent structured-log ring, the recent span ring, and
// a windowed extract of the firing rule's series from the
// self-monitoring history — so "why did the service misbehave at
// 03:12" can be answered from recorded state instead of a human
// attached at the right moment.
//
// Capture is asynchronous off the SLO evaluator goroutine (the
// evaluator runs on the scraper's tick; a CPU profile takes seconds),
// debounced per rule so a flapping alert cannot profile-storm the
// process, and retention-bounded on disk. The recorder observes
// itself through caladrius_incident_* metrics.
package incident

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/profiler"
	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

// BundleVersion is written into every manifest so future readers can
// detect layout changes.
const BundleVersion = 1

// A bundle's metrics extract reaches lookback before the firing rule's
// own window, and its spans artifact holds the spanTraces most recent
// traces. On disk the recorder keeps the maxBundles newest bundles,
// deleting older ones after each capture.
const (
	lookback   = 5 * time.Minute
	spanTraces = 32
	maxBundles = 16
)

// Artifact names inside a bundle directory.
const (
	ArtifactCPU       = "cpu.pprof"
	ArtifactHeap      = "heap.pprof"
	ArtifactGoroutine = "goroutine.pprof"
	ArtifactMutex     = "mutex.pprof"
	ArtifactBlock     = "block.pprof"
	ArtifactLogs      = "logs.json"
	ArtifactSpans     = "spans.json"
	ArtifactMetrics   = "metrics.json"
	manifestName      = "manifest.json"
)

// Capture triggers.
const (
	TriggerSLO    = "slo"
	TriggerManual = "manual"
)

// Attachment is an extra artifact contributed to every bundle by
// another subsystem: Capture is invoked at bundle time and its bytes
// land in the bundle directory under Name.
type Attachment struct {
	Name    string
	Capture func() ([]byte, error)
}

// Artifact describes one file of a bundle.
type Artifact struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// AlertInfo is the firing alert's state at capture time.
type AlertInfo struct {
	Value     *float64   `json:"value,omitempty"`
	Threshold float64    `json:"threshold"`
	Op        string     `json:"op"`
	Window    string     `json:"window"`
	Since     *time.Time `json:"since,omitempty"`
}

// MetricsWindow describes the history extract an incident captured.
type MetricsWindow struct {
	Metric string      `json:"metric"`
	Labels tsdb.Labels `json:"labels,omitempty"`
	Start  time.Time   `json:"start"`
	End    time.Time   `json:"end"`
	Series int         `json:"series"`
	Points int         `json:"points"`
}

// Manifest is the bundle's index, written last so a bundle with a
// manifest is complete by construction.
type Manifest struct {
	Version    int       `json:"version"`
	ID         string    `json:"id"`
	CapturedAt time.Time `json:"captured_at"`
	// Trigger is "slo" or "manual".
	Trigger string `json:"trigger"`
	// Rule names the SLO rule that fired (SLO-triggered captures).
	Rule        string     `json:"rule,omitempty"`
	Description string     `json:"description,omitempty"`
	Alert       *AlertInfo `json:"alert,omitempty"`
	Artifacts   []Artifact `json:"artifacts"`
	// TraceIDs is the union of trace ids seen in captured logs and
	// spans; JoinedTraceIDs are the ones present in both — the requests
	// whose evidence is fully joinable across artifacts.
	TraceIDs       []string       `json:"trace_ids,omitempty"`
	JoinedTraceIDs []string       `json:"joined_trace_ids,omitempty"`
	LogRecords     int            `json:"log_records"`
	SpanTraces     int            `json:"span_traces"`
	Metrics        *MetricsWindow `json:"metrics,omitempty"`
	// Notes records per-artifact capture problems (e.g. a concurrent
	// CPU profile) without failing the whole bundle.
	Notes []string `json:"notes,omitempty"`
}

// Options configures a Recorder. Every field but CPUProfile and
// Attachments is required.
type Options struct {
	// Dir is the bundle root; one subdirectory per incident.
	Dir string
	// Registry receives the caladrius_incident_* self-metrics.
	Registry *instrument.Registry
	// History is the self-monitoring store the firing rule's series
	// window is extracted from.
	History *tsdb.DB
	// Logs is the structured-log ring to snapshot.
	Logs *telemetry.LogRing
	// Tracer supplies the recent span ring.
	Tracer *telemetry.Tracer
	// Cooldown is the per-rule minimum spacing between SLO-triggered
	// captures.
	Cooldown time.Duration
	// CPUProfile is how long the CPU profile samples. Default: 2s.
	CPUProfile time.Duration
	// Attachments are extra artifacts other subsystems contribute to
	// every bundle (the continuous profiler attaches its hot-function
	// diff table as profile-diff.json). A failing Capture becomes a
	// manifest note, never a failed bundle.
	Attachments []Attachment
	// Now stamps captures and anchors the metrics window.
	Now func() time.Time
	// Logger receives recorder events.
	Logger *slog.Logger
}

// Recorder captures incident bundles. One background worker drains
// the capture queue so SLO evaluation never blocks on profiling.
type Recorder struct {
	opts Options

	mu          sync.Mutex
	closed      bool
	lastCapture map[string]time.Time // rule name → last enqueued capture
	seq         int
	bundles     []Manifest // oldest first

	queue   chan captureReq
	pending sync.WaitGroup
	done    chan struct{}

	// captureMu serializes actual captures: two concurrent
	// pprof.StartCPUProfile calls would fail.
	captureMu sync.Mutex

	captures   map[string]*instrument.Counter // by trigger
	suppressed *instrument.Counter
	dropped    *instrument.Counter
	failures   *instrument.Counter
	duration   *instrument.Histogram
	retained   *instrument.Gauge
	diskBytes  *instrument.Gauge
	lastUnix   *instrument.Gauge
}

type captureReq struct {
	trigger string
	rule    *telemetry.Rule
	alert   *telemetry.Alert
}

// New builds a recorder rooted at opts.Dir, creating the directory and
// indexing any bundles a previous process left there, and starts the
// capture worker.
func New(opts Options) (*Recorder, error) {
	for _, req := range []struct {
		what, field string
		unset       bool
	}{
		{"a bundle directory", "Dir", opts.Dir == ""},
		{"a telemetry registry", "Registry", opts.Registry == nil},
		{"a history store", "History", opts.History == nil},
		{"a log ring", "Logs", opts.Logs == nil},
		{"a tracer", "Tracer", opts.Tracer == nil},
		{"a positive cooldown", "Cooldown", opts.Cooldown <= 0},
		{"a clock", "Now", opts.Now == nil},
		{"a logger", "Logger", opts.Logger == nil},
	} {
		if req.unset {
			return nil, fmt.Errorf("incident: recorder needs %s (Options.%s)", req.what, req.field)
		}
	}
	if opts.CPUProfile <= 0 {
		opts.CPUProfile = 2 * time.Second
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	reg := opts.Registry
	reg.SetHelp("caladrius_incident_captures_total", "Incident bundles captured, by trigger.")
	reg.SetHelp("caladrius_incident_suppressed_total", "SLO-triggered captures suppressed by the per-rule cooldown.")
	reg.SetHelp("caladrius_incident_dropped_total", "Capture requests dropped because the queue was full.")
	reg.SetHelp("caladrius_incident_failures_total", "Captures that failed outright (bundle not written).")
	reg.SetHelp("caladrius_incident_capture_duration_seconds", "Wall-clock cost of writing one bundle (includes the CPU profile window).")
	reg.SetHelp("caladrius_incident_retained_bundles", "Bundles currently retained on disk.")
	reg.SetHelp("caladrius_incident_disk_bytes", "Total bytes of retained bundles.")
	reg.SetHelp("caladrius_incident_last_capture_timestamp_seconds", "Unix time of the most recent capture.")
	r := &Recorder{
		opts:        opts,
		lastCapture: map[string]time.Time{},
		queue:       make(chan captureReq, 8),
		done:        make(chan struct{}),
		captures: map[string]*instrument.Counter{
			TriggerSLO:    reg.Counter("caladrius_incident_captures_total", instrument.Labels{"trigger": TriggerSLO}),
			TriggerManual: reg.Counter("caladrius_incident_captures_total", instrument.Labels{"trigger": TriggerManual}),
		},
		suppressed: reg.Counter("caladrius_incident_suppressed_total", nil),
		dropped:    reg.Counter("caladrius_incident_dropped_total", nil),
		failures:   reg.Counter("caladrius_incident_failures_total", nil),
		duration:   reg.Histogram("caladrius_incident_capture_duration_seconds", instrument.DefLatencyBuckets, nil),
		retained:   reg.Gauge("caladrius_incident_retained_bundles", nil),
		diskBytes:  reg.Gauge("caladrius_incident_disk_bytes", nil),
		lastUnix:   reg.Gauge("caladrius_incident_last_capture_timestamp_seconds", nil),
	}
	if err := r.loadExisting(); err != nil {
		return nil, err
	}
	r.updateRetentionMetrics()
	go r.worker()
	return r, nil
}

// loadExisting indexes manifests left by previous processes so
// retention and listing span restarts.
func (r *Recorder) loadExisting() error {
	entries, err := os.ReadDir(r.opts.Dir)
	if err != nil {
		return fmt.Errorf("incident: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(r.opts.Dir, e.Name(), manifestName))
		if err != nil {
			continue // incomplete bundle (no manifest): ignore, retention will not count it
		}
		m, err := readManifest(data, e.Name())
		if err != nil {
			r.opts.Logger.Warn("incident bundle not indexed", "bundle", e.Name(), "err", err)
			continue
		}
		r.bundles = append(r.bundles, m)
	}
	sort.Slice(r.bundles, func(i, j int) bool {
		if !r.bundles[i].CapturedAt.Equal(r.bundles[j].CapturedAt) {
			return r.bundles[i].CapturedAt.Before(r.bundles[j].CapturedAt)
		}
		return r.bundles[i].ID < r.bundles[j].ID
	})
	return nil
}

// readManifest decodes the manifest found in bundle directory dir. It
// refuses one written by another bundle layout, one that names another
// bundle, and one listing an artifact that is not a single path element
// of dir: ArtifactPath joins those names onto the bundle directory.
func readManifest(data []byte, dir string) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, err
	}
	if m.Version != BundleVersion {
		return Manifest{}, fmt.Errorf("manifest version %d, want %d", m.Version, BundleVersion)
	}
	if m.ID != dir {
		return Manifest{}, fmt.Errorf("manifest id %q names another bundle", m.ID)
	}
	for _, a := range m.Artifacts {
		if !fileName(a.Name) {
			return Manifest{}, fmt.Errorf("artifact %q is not a file name", a.Name)
		}
	}
	return m, nil
}

// fileName reports whether name is a single path element naming a file
// inside a bundle directory.
func fileName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, `/\`)
}

// FiringHook returns the callback to register with SLO.OnFiring: it
// applies the per-rule cooldown and enqueues an asynchronous capture.
func (r *Recorder) FiringHook() func(telemetry.Rule, telemetry.Alert) {
	return func(rule telemetry.Rule, alert telemetry.Alert) {
		now := r.opts.Now()
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		if last, ok := r.lastCapture[rule.Name]; ok && now.Sub(last) < r.opts.Cooldown {
			r.mu.Unlock()
			r.suppressed.Inc()
			return
		}
		// Stamp at enqueue time so a flap during a slow capture is
		// debounced too.
		r.lastCapture[rule.Name] = now
		r.pending.Add(1)
		ruleCopy, alertCopy := rule, alert
		select {
		case r.queue <- captureReq{trigger: TriggerSLO, rule: &ruleCopy, alert: &alertCopy}:
			r.mu.Unlock()
		default:
			r.pending.Done()
			r.mu.Unlock()
			r.dropped.Inc()
		}
	}
}

func (r *Recorder) worker() {
	for req := range r.queue {
		if _, err := r.capture(req); err != nil {
			r.failures.Inc()
			r.opts.Logger.Error("incident capture failed", "trigger", req.trigger, "err", err)
		}
		r.pending.Done()
	}
	close(r.done)
}

// CaptureNow performs a synchronous capture (the manual endpoint). It
// bypasses the SLO cooldown — an operator asking for evidence should
// get it — but serializes with any in-flight capture.
func (r *Recorder) CaptureNow() (Manifest, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return Manifest{}, errors.New("incident: recorder closed")
	}
	r.mu.Unlock()
	m, err := r.capture(captureReq{trigger: TriggerManual})
	if err != nil {
		r.failures.Inc()
	}
	return m, err
}

// Flush blocks until every queued capture has been written.
func (r *Recorder) Flush() { r.pending.Wait() }

// Close flushes queued captures and stops the worker. The recorder
// rejects new work afterwards.
func (r *Recorder) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.pending.Wait()
	close(r.queue)
	<-r.done
}

// List returns the retained bundle manifests, newest first.
func (r *Recorder) List() []Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Manifest, len(r.bundles))
	for i, m := range r.bundles {
		out[len(out)-1-i] = m
	}
	return out
}

// Get returns one bundle's manifest.
func (r *Recorder) Get(id string) (Manifest, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.bundles {
		if m.ID == id {
			return m, true
		}
	}
	return Manifest{}, false
}

// ArtifactPath resolves an artifact download to its file path,
// refusing names the manifest does not list (so the API can never be
// walked outside a bundle directory).
func (r *Recorder) ArtifactPath(id, name string) (string, bool) {
	m, ok := r.Get(id)
	if !ok {
		return "", false
	}
	for _, a := range m.Artifacts {
		if a.Name == name {
			return filepath.Join(r.opts.Dir, id, name), true
		}
	}
	return "", false
}

// Dir returns the bundle root directory.
func (r *Recorder) Dir() string { return r.opts.Dir }

// --- capture ---------------------------------------------------------------

func (r *Recorder) capture(req captureReq) (Manifest, error) {
	r.captureMu.Lock()
	defer r.captureMu.Unlock()
	began := time.Now()
	now := r.opts.Now()

	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()
	slug := TriggerManual
	if req.rule != nil {
		slug = slugify(req.rule.Name)
	}
	id := fmt.Sprintf("%s-%03d-%s", now.UTC().Format("20060102T150405.000"), seq, slug)
	dir := filepath.Join(r.opts.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("incident: %w", err)
	}

	m := Manifest{
		Version:    BundleVersion,
		ID:         id,
		CapturedAt: now,
		Trigger:    req.trigger,
	}
	if req.rule != nil {
		m.Rule = req.rule.Name
		m.Description = req.rule.Description
	}
	if req.alert != nil {
		m.Alert = &AlertInfo{
			Value:     req.alert.Value,
			Threshold: req.alert.Threshold,
			Op:        req.alert.Op,
			Window:    req.alert.Window,
			Since:     req.alert.Since,
		}
	}

	note := func(format string, args ...any) {
		m.Notes = append(m.Notes, fmt.Sprintf(format, args...))
	}
	addArtifact := func(name string) {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			note("%s: %v", name, err)
			return
		}
		m.Artifacts = append(m.Artifacts, Artifact{Name: name, Bytes: fi.Size()})
	}

	// Profiles. The CPU profile samples for the configured window; the
	// four snapshot profiles are instantaneous. Mutex/block profiles
	// are only as good as the runtime rates daemon.Run sets.
	if err := r.writeCPUProfile(filepath.Join(dir, ArtifactCPU)); err != nil {
		note("%s: %v", ArtifactCPU, err)
	} else {
		addArtifact(ArtifactCPU)
	}
	for name, profile := range map[string]string{
		ArtifactHeap:      "heap",
		ArtifactGoroutine: "goroutine",
		ArtifactMutex:     "mutex",
		ArtifactBlock:     "block",
	} {
		if err := writeLookupProfile(filepath.Join(dir, name), profile); err != nil {
			note("%s: %v", name, err)
		} else {
			addArtifact(name)
		}
	}

	// Contributed attachments (e.g. the profiler's regression diff).
	for _, att := range r.opts.Attachments {
		if !fileName(att.Name) || att.Capture == nil {
			note("attachment %q: invalid name or nil capture", att.Name)
			continue
		}
		data, err := att.Capture()
		if err != nil {
			note("%s: %v", att.Name, err)
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, att.Name), data, 0o644); err != nil {
			note("%s: %v", att.Name, err)
			continue
		}
		addArtifact(att.Name)
	}

	// Logs + spans, collecting trace ids for the join.
	logTraces := map[string]bool{}
	records := r.opts.Logs.Snapshot()
	m.LogRecords = len(records)
	for _, rec := range records {
		if rec.Trace != "" {
			logTraces[rec.Trace] = true
		}
	}
	if err := writeJSONFile(filepath.Join(dir, ArtifactLogs), records); err != nil {
		note("%s: %v", ArtifactLogs, err)
	} else {
		addArtifact(ArtifactLogs)
	}
	spanTraceIDs := map[string]bool{}
	traces := r.opts.Tracer.Recent(spanTraces)
	m.SpanTraces = len(traces)
	for _, tj := range traces {
		spanTraceIDs[tj.TraceID] = true
	}
	if err := writeJSONFile(filepath.Join(dir, ArtifactSpans), traces); err != nil {
		note("%s: %v", ArtifactSpans, err)
	} else {
		addArtifact(ArtifactSpans)
	}
	m.TraceIDs = sortedKeys(union(logTraces, spanTraceIDs))
	m.JoinedTraceIDs = sortedKeys(intersect(logTraces, spanTraceIDs))

	// Windowed extract of the firing rule's series: the rule's own
	// evaluation window plus the lookback, so the bundle shows the
	// run-up, not just the breach.
	if req.rule != nil {
		window := req.rule.Window
		if window <= 0 {
			window = time.Minute
		}
		start := now.Add(-window - lookback)
		series, err := r.opts.History.Query(req.rule.Metric, req.rule.Selector, start, now.Add(time.Second))
		if err != nil && !errors.Is(err, tsdb.ErrNoData) {
			note("%s: %v", ArtifactMetrics, err)
		} else {
			points := 0
			for _, s := range series {
				points += len(s.Points)
			}
			m.Metrics = &MetricsWindow{
				Metric: req.rule.Metric,
				Labels: req.rule.Selector,
				Start:  start,
				End:    now,
				Series: len(series),
				Points: points,
			}
			if err := writeJSONFile(filepath.Join(dir, ArtifactMetrics), series); err != nil {
				note("%s: %v", ArtifactMetrics, err)
			} else {
				addArtifact(ArtifactMetrics)
			}
		}
	}

	// The manifest is written last: readers treat its presence as "the
	// bundle is complete".
	if err := writeJSONFile(filepath.Join(dir, manifestName), m); err != nil {
		return Manifest{}, fmt.Errorf("incident: manifest: %w", err)
	}

	r.mu.Lock()
	r.bundles = append(r.bundles, m)
	evicted := r.pruneLocked()
	r.mu.Unlock()
	for _, old := range evicted {
		if err := os.RemoveAll(filepath.Join(r.opts.Dir, old.ID)); err != nil {
			r.opts.Logger.Warn("incident retention", "bundle", old.ID, "err", err)
		}
	}
	r.updateRetentionMetrics()
	r.captures[req.trigger].Inc()
	r.duration.Observe(time.Since(began).Seconds())
	r.lastUnix.Set(float64(now.Unix()))
	r.opts.Logger.Info("incident bundle captured",
		"id", id, "trigger", req.trigger, "rule", m.Rule,
		"artifacts", len(m.Artifacts), "joined_traces", len(m.JoinedTraceIDs))
	return m, nil
}

// pruneLocked trims the index to maxBundles and returns the evicted
// manifests; the caller deletes their directories outside the lock.
func (r *Recorder) pruneLocked() []Manifest {
	if len(r.bundles) <= maxBundles {
		return nil
	}
	n := len(r.bundles) - maxBundles
	evicted := append([]Manifest(nil), r.bundles[:n]...)
	r.bundles = append(r.bundles[:0], r.bundles[n:]...)
	return evicted
}

func (r *Recorder) updateRetentionMetrics() {
	r.mu.Lock()
	n := len(r.bundles)
	var bytes int64
	for _, m := range r.bundles {
		for _, a := range m.Artifacts {
			bytes += a.Bytes
		}
	}
	r.mu.Unlock()
	r.retained.Set(float64(n))
	r.diskBytes.Set(float64(bytes))
}

// writeCPUProfile and writeLookupProfile delegate to the shared
// capture helpers in internal/profiler, so bundles and the continuous
// profiler's periodic windows use the identical capture path (and the
// same process-wide CPU-profile lock).
func (r *Recorder) writeCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := profiler.CaptureCPUProfile(f, r.opts.CPUProfile); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

func writeLookupProfile(path, profile string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := profiler.CaptureProfile(f, profile); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func slugify(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c - 'A' + 'a')
		default:
			b.WriteByte('-')
		}
	}
	out := b.String()
	if out == "" {
		out = "rule"
	}
	if len(out) > 48 {
		out = out[:48]
	}
	return out
}

func union(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
