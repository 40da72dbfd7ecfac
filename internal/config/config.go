// Package config loads Caladrius' service configuration. The original
// system is configured through YAML files that select model
// implementations and carry per-model options; this package parses the
// same shape with the yamlite subset parser and validates it into
// typed structs.
//
// Example:
//
//	api:
//	  addr: ":8642"
//	metrics:
//	  window_seconds: 60
//	traffic_models:
//	  - name: prophet
//	    options: {changepoints: 20}
//	  - name: summary
//	calibration:
//	  warmup_windows: 4
//	  lookback_minutes: 120
//	fetch:
//	  retries: 2
//	  timeout_seconds: 10
//	usage:
//	  topk: 256
//	  window_seconds: 900
//	profiler:
//	  interval_seconds: 10
//	sched:
//	  workers: 4
//	  queue_depth: 64
//	  cache_ttl_minutes: 10
package config

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"caladrius/internal/profiler"
	"caladrius/internal/yamlite"
)

// ModelRef selects a registered forecast model with its options.
type ModelRef struct {
	Name    string
	Options map[string]any
}

// Config is the validated service configuration.
type Config struct {
	// APIAddr is the listen address of the REST service.
	APIAddr string
	// MetricsWindow is the metrics rollup interval of the metrics
	// database being queried.
	MetricsWindow time.Duration
	// TrafficModels lists the forecast models run for traffic
	// requests, in order.
	TrafficModels []ModelRef
	// CalibrationWarmup is the number of leading metric windows
	// dropped before calibrating performance models.
	CalibrationWarmup int
	// CalibrationLookback is how much metric history calibration uses.
	CalibrationLookback time.Duration
	// FetchRetries is how many times a failed metrics fetch is retried
	// (transient failures only; 0 disables retrying).
	FetchRetries int
	// FetchTimeout bounds each individual fetch attempt (0 = no bound).
	FetchTimeout time.Duration
	// UsageTopK is the usage accountant's live-principal cap K: at most
	// this many (tenant, topology) principals are tracked individually;
	// the rest roll into the "other" bucket. At least 1: usage accounting
	// is always on.
	UsageTopK int
	// UsageWindow is the trailing window /api/v1/usage ranks principals
	// over.
	UsageWindow time.Duration
	// ProfileInterval is the continuous profiler's capture period;
	// 0 disables the profiler (and /api/v1/profiles answers 404).
	// Otherwise it must be longer than profiler.CPUWindow, the CPU
	// capture each round takes.
	ProfileInterval time.Duration
	// SchedWorkers is the model-run scheduler's worker-pool size
	// (0 = max(2, GOMAXPROCS)).
	SchedWorkers int
	// SchedQueueDepth bounds the scheduler's admission queue; requests
	// past it are shed with 429 + Retry-After. At least 1.
	SchedQueueDepth int
	// CalCacheTTL is the calibration cache's entry lifetime
	// (0 = entries only leave on tracker/packing invalidation).
	CalCacheTTL time.Duration

	// The rest have no YAML key: cmd/caladrius sets them by flag, and
	// in-process callers by assignment. Their rows of the settings table
	// describe them; 0 and "" mean off only where said there.

	// Demo substrate: WarmMinutes of simulated word-count history at
	// Rate tuples/minute, or the heronsim snapshot in MetricsFile.
	Rate                float64
	SplitterP, CounterP int
	WarmMinutes         int
	MetricsFile         string

	DebugAddr            string
	ScrapeInterval       time.Duration
	HistoryRetention     time.Duration
	HistoryFile          string
	AuditResolveInterval time.Duration
	AuditFile            string
	IncidentDir          string
	IncidentCooldown     time.Duration
	ProfileBaseline      string
}

// Default returns the configuration used when no file is given.
func Default() Config {
	return Config{
		APIAddr:             ":8642",
		MetricsWindow:       time.Minute,
		TrafficModels:       []ModelRef{{Name: "prophet"}, {Name: "summary"}},
		CalibrationWarmup:   4,
		CalibrationLookback: 2 * time.Hour,
		FetchRetries:        2,
		FetchTimeout:        10 * time.Second,
		UsageTopK:           256,
		UsageWindow:         15 * time.Minute,
		// The profiler's 250ms CPU window every 10s is a 2.5% sampling
		// duty cycle whose measured cost on the predict path stays under
		// the 1% overhead budget (BenchmarkPredictProfilerOn against
		// BenchmarkPredictWarmCache).
		ProfileInterval: 10 * time.Second,
		SchedWorkers:    0, // auto: max(2, GOMAXPROCS)
		SchedQueueDepth: 64,
		CalCacheTTL:     10 * time.Minute,

		Rate:                 30e6,
		SplitterP:            3,
		CounterP:             4,
		WarmMinutes:          30,
		ScrapeInterval:       5 * time.Second,
		HistoryRetention:     time.Hour,
		AuditResolveInterval: 15 * time.Second,
		IncidentCooldown:     5 * time.Minute,
	}
}

// Load reads and parses a configuration file.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	return Parse(string(data))
}

// Parse parses configuration text, applying defaults for absent keys.
// A section or key the settings table does not have is an error: a
// misspelt key would otherwise leave its default silently in force.
func Parse(src string) (Config, error) {
	doc, err := yamlite.ParseMap(src)
	if err != nil {
		return Config{}, err
	}
	cfg := Default()
	sections := []string{"traffic_models"}
	keys := map[string][]string{} // section → the keys the table has for it
	for _, s := range settings {
		sec, key, ok := strings.Cut(s.key, ".")
		if !ok {
			continue // flag-only
		}
		if keys[sec] == nil {
			sections = append(sections, sec)
		}
		keys[sec] = append(keys[sec], key)
		m, isMap := doc[sec].(map[string]any)
		if _, present := doc[sec]; present && !isMap {
			return Config{}, fmt.Errorf("config: %s is %T, want mapping", sec, doc[sec])
		}
		if raw, present := m[key]; present {
			if err := s.fromYAML(&cfg, raw); err != nil {
				return Config{}, err
			}
		}
	}
	if raw, present := doc["traffic_models"]; present {
		if cfg.TrafficModels, err = trafficModels(raw); err != nil {
			return Config{}, err
		}
	}
	for sec, raw := range doc {
		if sec == "traffic_models" {
			continue
		}
		if keys[sec] == nil {
			return Config{}, fmt.Errorf("config: unknown section %q (sections: %s)", sec, strings.Join(sections, ", "))
		}
		for key := range raw.(map[string]any) { // a mapping: checked above
			if !slices.Contains(keys[sec], key) {
				return Config{}, fmt.Errorf("config: unknown key %s.%s (keys of %s: %s)", sec, key, sec, strings.Join(keys[sec], ", "))
			}
		}
	}
	return cfg, cfg.Validate()
}

// trafficModels parses the traffic_models list — the one setting that
// is not a scalar, and so not a row of the settings table.
func trafficModels(raw any) ([]ModelRef, error) {
	list, ok := raw.([]any)
	if !ok {
		return nil, fmt.Errorf("config: traffic_models is %T, want list", raw)
	}
	var refs []ModelRef
	for i, item := range list {
		m, ok := item.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("config: traffic_models[%d] is %T, want mapping", i, item)
		}
		name, isString := m["name"].(string)
		if m["name"] != nil && !isString {
			return nil, fmt.Errorf("config: traffic_models[%d].name is %T, want string", i, m["name"])
		}
		if name == "" {
			return nil, fmt.Errorf("config: traffic_models[%d] missing name", i)
		}
		ref := ModelRef{Name: name}
		if rawOpts, present := m["options"]; present {
			opts, ok := rawOpts.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("config: traffic_models[%d].options is %T, want mapping", i, rawOpts)
			}
			ref.Options = opts
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// Validate checks every setting against its row's bounds, then the
// rules that span settings.
func (c Config) Validate() error {
	for _, s := range settings {
		if err := s.check(&c); err != nil {
			return err
		}
	}
	if len(c.TrafficModels) == 0 {
		return fmt.Errorf("config: no traffic models configured")
	}
	if c.ProfileInterval > 0 && c.ProfileInterval <= profiler.CPUWindow {
		return fmt.Errorf("config: profiler.interval_seconds (-profile-interval) is %s, want 0 or longer than the profiler's %s CPU window",
			c.ProfileInterval, profiler.CPUWindow)
	}
	return nil
}
