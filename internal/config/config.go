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
//	  request_timeout_seconds: 30
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
//	  backoff_ms: 50
//	  timeout_seconds: 10
//	profiling:
//	  mutex_fraction: 100
//	  block_rate_ns: 10000
//	usage:
//	  topk: 256
//	  window_seconds: 900
//	profiler:
//	  interval_seconds: 10
//	  cpu_window_ms: 250
//	  epoch_seconds: 60
//	  windows: 8
//	  topk: 20
//	  regression_delta: 0.2
//	sched:
//	  workers: 4
//	  queue_depth: 64
//	  cache_ttl_minutes: 10
package config

import (
	"fmt"
	"os"
	"time"

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
	// RequestTimeout bounds model evaluations per request.
	RequestTimeout time.Duration
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
	// FetchBackoff is the delay before the first retry; it doubles on
	// each subsequent one.
	FetchBackoff time.Duration
	// FetchTimeout bounds each individual fetch attempt (0 = no bound).
	FetchTimeout time.Duration
	// MutexProfileFraction is runtime.SetMutexProfileFraction's rate:
	// 1/n mutex contention events are sampled (0 disables sampling and
	// leaves incident mutex profiles empty).
	MutexProfileFraction int
	// BlockProfileRate is runtime.SetBlockProfileRate's threshold in
	// nanoseconds: blocking events lasting at least this long are
	// sampled (0 disables sampling and leaves incident block profiles
	// empty).
	BlockProfileRate int
	// UsageTopK is the usage accountant's live-principal cap K: at most
	// this many (tenant, topology) principals are tracked individually;
	// the rest roll into the "other" bucket. 0 disables usage
	// accounting entirely.
	UsageTopK int
	// UsageWindow is the trailing window /api/v1/usage ranks principals
	// over.
	UsageWindow time.Duration
	// ProfileInterval is the continuous profiler's capture period;
	// 0 disables the profiler (and /api/v1/profiles answers 404).
	ProfileInterval time.Duration
	// ProfileCPUWindow is how long each periodic CPU capture samples.
	ProfileCPUWindow time.Duration
	// ProfileEpoch is the width of one profiler fold window.
	ProfileEpoch time.Duration
	// ProfileWindows bounds the profiler's ring of completed windows.
	ProfileWindows int
	// ProfileTopK bounds function/stack lists served by default.
	ProfileTopK int
	// ProfileRegressionDelta is the profile-hot-function-regression SLO
	// threshold: a fraction of total flat time (0.2 = 20 points).
	ProfileRegressionDelta float64
	// SchedWorkers is the model-run scheduler's worker-pool size
	// (0 = max(2, GOMAXPROCS)).
	SchedWorkers int
	// SchedQueueDepth bounds the scheduler's admission queue; requests
	// past it are shed with 429 + Retry-After. At least 1.
	SchedQueueDepth int
	// CalCacheTTL is the calibration cache's entry lifetime
	// (0 = entries only leave on tracker/packing invalidation).
	CalCacheTTL time.Duration
}

// Default returns the configuration used when no file is given.
func Default() Config {
	return Config{
		APIAddr:             ":8642",
		RequestTimeout:      30 * time.Second,
		MetricsWindow:       time.Minute,
		TrafficModels:       []ModelRef{{Name: "prophet"}, {Name: "summary"}},
		CalibrationWarmup:   4,
		CalibrationLookback: 2 * time.Hour,
		FetchRetries:        2,
		FetchBackoff:        50 * time.Millisecond,
		FetchTimeout:        10 * time.Second,
		// Sampling 1/100 contention events and ≥10µs blocking events is
		// cheap enough for an always-on daemon while keeping incident
		// contention profiles non-empty.
		MutexProfileFraction: 100,
		BlockProfileRate:     10000,
		UsageTopK:            256,
		UsageWindow:          15 * time.Minute,
		// A 250ms CPU window every 10s is a 2.5% sampling duty cycle
		// whose measured cost on the predict path stays under the 1%
		// overhead budget (see BENCH_core.json).
		ProfileInterval:        10 * time.Second,
		ProfileCPUWindow:       250 * time.Millisecond,
		ProfileEpoch:           time.Minute,
		ProfileWindows:         8,
		ProfileTopK:            20,
		ProfileRegressionDelta: 0.20,
		SchedWorkers:           0, // auto: max(2, GOMAXPROCS)
		SchedQueueDepth:        64,
		CalCacheTTL:            10 * time.Minute,
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
func Parse(src string) (Config, error) {
	doc, err := yamlite.ParseMap(src)
	if err != nil {
		return Config{}, err
	}
	cfg := Default()

	if api, ok, err := section(doc, "api"); err != nil {
		return Config{}, err
	} else if ok {
		if v, ok, err := stringKey(api, "addr"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.APIAddr = v
		}
		if v, ok, err := floatKey(api, "request_timeout_seconds"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.RequestTimeout = time.Duration(v * float64(time.Second))
		}
	}

	if m, ok, err := section(doc, "metrics"); err != nil {
		return Config{}, err
	} else if ok {
		if v, ok, err := floatKey(m, "window_seconds"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.MetricsWindow = time.Duration(v * float64(time.Second))
		}
	}

	if raw, present := doc["traffic_models"]; present {
		list, ok := raw.([]any)
		if !ok {
			return Config{}, fmt.Errorf("config: traffic_models is %T, want list", raw)
		}
		cfg.TrafficModels = nil
		for i, item := range list {
			m, ok := item.(map[string]any)
			if !ok {
				return Config{}, fmt.Errorf("config: traffic_models[%d] is %T, want mapping", i, item)
			}
			name, ok, err := stringKey(m, "name")
			if err != nil {
				return Config{}, err
			}
			if !ok || name == "" {
				return Config{}, fmt.Errorf("config: traffic_models[%d] missing name", i)
			}
			ref := ModelRef{Name: name}
			if rawOpts, present := m["options"]; present {
				opts, ok := rawOpts.(map[string]any)
				if !ok {
					return Config{}, fmt.Errorf("config: traffic_models[%d].options is %T, want mapping", i, rawOpts)
				}
				ref.Options = opts
			}
			cfg.TrafficModels = append(cfg.TrafficModels, ref)
		}
	}

	if f, ok, err := section(doc, "fetch"); err != nil {
		return Config{}, err
	} else if ok {
		if v, ok, err := floatKey(f, "retries"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.FetchRetries = int(v)
		}
		if v, ok, err := floatKey(f, "backoff_ms"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.FetchBackoff = time.Duration(v * float64(time.Millisecond))
		}
		if v, ok, err := floatKey(f, "timeout_seconds"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.FetchTimeout = time.Duration(v * float64(time.Second))
		}
	}

	if p, ok, err := section(doc, "profiling"); err != nil {
		return Config{}, err
	} else if ok {
		if v, ok, err := floatKey(p, "mutex_fraction"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.MutexProfileFraction = int(v)
		}
		if v, ok, err := floatKey(p, "block_rate_ns"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.BlockProfileRate = int(v)
		}
	}

	if u, ok, err := section(doc, "usage"); err != nil {
		return Config{}, err
	} else if ok {
		if v, ok, err := floatKey(u, "topk"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.UsageTopK = int(v)
		}
		if v, ok, err := floatKey(u, "window_seconds"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.UsageWindow = time.Duration(v * float64(time.Second))
		}
	}

	if pr, ok, err := section(doc, "profiler"); err != nil {
		return Config{}, err
	} else if ok {
		if v, ok, err := floatKey(pr, "interval_seconds"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.ProfileInterval = time.Duration(v * float64(time.Second))
		}
		if v, ok, err := floatKey(pr, "cpu_window_ms"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.ProfileCPUWindow = time.Duration(v * float64(time.Millisecond))
		}
		if v, ok, err := floatKey(pr, "epoch_seconds"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.ProfileEpoch = time.Duration(v * float64(time.Second))
		}
		if v, ok, err := floatKey(pr, "windows"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.ProfileWindows = int(v)
		}
		if v, ok, err := floatKey(pr, "topk"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.ProfileTopK = int(v)
		}
		if v, ok, err := floatKey(pr, "regression_delta"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.ProfileRegressionDelta = v
		}
	}

	if sc, ok, err := section(doc, "sched"); err != nil {
		return Config{}, err
	} else if ok {
		if v, ok, err := floatKey(sc, "workers"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.SchedWorkers = int(v)
		}
		if v, ok, err := floatKey(sc, "queue_depth"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.SchedQueueDepth = int(v)
		}
		if v, ok, err := floatKey(sc, "cache_ttl_minutes"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.CalCacheTTL = time.Duration(v * float64(time.Minute))
		}
	}

	if c, ok, err := section(doc, "calibration"); err != nil {
		return Config{}, err
	} else if ok {
		if v, ok, err := floatKey(c, "warmup_windows"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.CalibrationWarmup = int(v)
		}
		if v, ok, err := floatKey(c, "lookback_minutes"); err != nil {
			return Config{}, err
		} else if ok {
			cfg.CalibrationLookback = time.Duration(v * float64(time.Minute))
		}
	}

	return cfg, cfg.Validate()
}

// Validate checks invariants.
func (c Config) Validate() error {
	if c.APIAddr == "" {
		return fmt.Errorf("config: empty api addr")
	}
	if c.RequestTimeout <= 0 {
		return fmt.Errorf("config: non-positive request timeout %s", c.RequestTimeout)
	}
	if c.MetricsWindow <= 0 {
		return fmt.Errorf("config: non-positive metrics window %s", c.MetricsWindow)
	}
	if len(c.TrafficModels) == 0 {
		return fmt.Errorf("config: no traffic models configured")
	}
	if c.CalibrationWarmup < 0 {
		return fmt.Errorf("config: negative calibration warmup %d", c.CalibrationWarmup)
	}
	if c.CalibrationLookback <= 0 {
		return fmt.Errorf("config: non-positive calibration lookback %s", c.CalibrationLookback)
	}
	if c.FetchRetries < 0 {
		return fmt.Errorf("config: negative fetch retries %d", c.FetchRetries)
	}
	if c.FetchBackoff < 0 {
		return fmt.Errorf("config: negative fetch backoff %s", c.FetchBackoff)
	}
	if c.FetchTimeout < 0 {
		return fmt.Errorf("config: negative fetch timeout %s", c.FetchTimeout)
	}
	if c.MutexProfileFraction < 0 {
		return fmt.Errorf("config: negative mutex profile fraction %d", c.MutexProfileFraction)
	}
	if c.BlockProfileRate < 0 {
		return fmt.Errorf("config: negative block profile rate %d", c.BlockProfileRate)
	}
	if c.UsageTopK < 0 {
		return fmt.Errorf("config: negative usage topk %d", c.UsageTopK)
	}
	if c.UsageWindow <= 0 {
		return fmt.Errorf("config: non-positive usage window %s", c.UsageWindow)
	}
	if c.ProfileInterval < 0 {
		return fmt.Errorf("config: negative profile interval %s", c.ProfileInterval)
	}
	if c.ProfileCPUWindow < 0 {
		return fmt.Errorf("config: negative profile cpu window %s", c.ProfileCPUWindow)
	}
	if c.ProfileInterval > 0 && c.ProfileCPUWindow >= c.ProfileInterval {
		return fmt.Errorf("config: profile cpu window %s must be shorter than the interval %s",
			c.ProfileCPUWindow, c.ProfileInterval)
	}
	if c.ProfileEpoch < 0 {
		return fmt.Errorf("config: negative profile epoch %s", c.ProfileEpoch)
	}
	if c.ProfileWindows < 0 {
		return fmt.Errorf("config: negative profile windows %d", c.ProfileWindows)
	}
	if c.ProfileTopK < 0 {
		return fmt.Errorf("config: negative profile topk %d", c.ProfileTopK)
	}
	if c.ProfileRegressionDelta < 0 || c.ProfileRegressionDelta > 1 {
		return fmt.Errorf("config: profile regression delta %g outside [0, 1]", c.ProfileRegressionDelta)
	}
	if c.SchedWorkers < 0 {
		return fmt.Errorf("config: negative sched workers %d", c.SchedWorkers)
	}
	if c.SchedQueueDepth < 1 {
		return fmt.Errorf("config: sched queue depth %d: want at least 1 (every model run goes through the scheduler; depth 0 no longer selects an inline path)", c.SchedQueueDepth)
	}
	if c.CalCacheTTL < 0 {
		return fmt.Errorf("config: negative calibration cache ttl %s", c.CalCacheTTL)
	}
	return nil
}

func section(doc map[string]any, key string) (map[string]any, bool, error) {
	raw, present := doc[key]
	if !present {
		return nil, false, nil
	}
	m, ok := raw.(map[string]any)
	if !ok {
		return nil, false, fmt.Errorf("config: %s is %T, want mapping", key, raw)
	}
	return m, true, nil
}

func stringKey(m map[string]any, key string) (string, bool, error) {
	raw, present := m[key]
	if !present {
		return "", false, nil
	}
	s, ok := raw.(string)
	if !ok {
		return "", false, fmt.Errorf("config: %s is %T, want string", key, raw)
	}
	return s, true, nil
}

func floatKey(m map[string]any, key string) (float64, bool, error) {
	raw, present := m[key]
	if !present {
		return 0, false, nil
	}
	switch v := raw.(type) {
	case float64:
		return v, true, nil
	case int64:
		return float64(v), true, nil
	default:
		return 0, false, fmt.Errorf("config: %s is %T, want number", key, raw)
	}
}
