package config

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"time"
)

// setting is one scalar setting of the daemon: where it lives in a
// Config and every way it can be given.
type setting struct {
	field func(*Config) any // a *int, *float64, *time.Duration or *string
	key   string            // "section.key" in the YAML file; "" if only flags set it
	flag  string            // its cmd/caladrius flag; "" if only the file sets it
	// unit is what 1 under key means for a duration — what the key's
	// suffix (_seconds, _minutes) promises the file's reader.
	// Flags take Go duration syntax and need none.
	unit time.Duration
	// min and max are inclusive, in the field's own terms: a count, a
	// fraction, nanoseconds for a duration (so "positive" is a min of
	// 1), characters for a string.
	min, max float64
	help     string
}

// most is the max of a row with nothing tighter to say: every integer
// and duration up to it converts from a YAML number without overflow.
const most = 1 << 62

// settings is the settings table — the only statement of which scalar
// settings exist. The YAML keys Parse accepts, what Validate enforces
// and the flags cmd/caladrius registers (their -h text, and their
// defaults from Default) all derive from it, and the contract tests in
// settings_test.go are loops over it.
var settings = []setting{
	{func(c *Config) any { return &c.APIAddr }, "api.addr", "addr", 0, 1, most, "listen address of the REST service"},
	{func(c *Config) any { return &c.MetricsWindow }, "metrics.window_seconds", "", time.Second, 1, most, "rollup interval of the metrics database being queried"},
	{func(c *Config) any { return &c.CalibrationWarmup }, "calibration.warmup_windows", "", 0, 0, most, "leading metric windows dropped before calibrating performance models"},
	{func(c *Config) any { return &c.CalibrationLookback }, "calibration.lookback_minutes", "", time.Minute, 1, most, "how much metric history calibration uses"},
	{func(c *Config) any { return &c.FetchRetries }, "fetch.retries", "fetch-retries", 0, 0, most, "metrics fetch retries on transient failure; 0 disables"},
	{func(c *Config) any { return &c.FetchTimeout }, "fetch.timeout_seconds", "fetch-timeout", time.Second, 0, most, "per-attempt metrics fetch bound; 0 disables"},
	{func(c *Config) any { return &c.UsageTopK }, "usage.topk", "usage-topk", 0, 1, most, "track at most this many (tenant, topology) usage principals, evicting into an 'other' rollup; usage accounting is always on, so there is no cap 0"},
	{func(c *Config) any { return &c.UsageWindow }, "usage.window_seconds", "usage-window", time.Second, 1, most, "trailing window /api/v1/usage ranks principals over"},
	{func(c *Config) any { return &c.ProfileInterval }, "profiler.interval_seconds", "profile-interval", time.Second, 0, most, "continuous profiler capture period; 0 disables the profiler"},
	{func(c *Config) any { return &c.SchedWorkers }, "sched.workers", "sched-workers", 0, 0, most, "model-run scheduler worker pool size; 0 auto-sizes to max(2, GOMAXPROCS)"},
	{func(c *Config) any { return &c.SchedQueueDepth }, "sched.queue_depth", "sched-queue", 0, 1, most, "model-run scheduler admission queue depth (excess sheds with 429); every model run goes through the scheduler, so there is no depth 0"},
	{func(c *Config) any { return &c.CalCacheTTL }, "sched.cache_ttl_minutes", "calcache-ttl", time.Minute, 0, most, "calibration cache entry lifetime; 0 keeps entries until invalidation"},

	{func(c *Config) any { return &c.Rate }, "", "rate", 0, 1, math.Inf(1), "demo topology offered source rate (tuples/minute)"},
	{func(c *Config) any { return &c.SplitterP }, "", "splitter", 0, 1, most, "demo splitter parallelism"},
	{func(c *Config) any { return &c.CounterP }, "", "counter", 0, 1, most, "demo counter parallelism"},
	{func(c *Config) any { return &c.WarmMinutes }, "", "warm-minutes", 0, 1, 366 * 24 * 60, "simulated minutes of metric history to pre-populate, a year at most"},
	{func(c *Config) any { return &c.MetricsFile }, "", "metrics", 0, 0, most, "serve from a heronsim -save metrics snapshot instead of simulating"},
	{func(c *Config) any { return &c.DebugAddr }, "", "debug-addr", 0, 0, most, "optional second listener for /debug/pprof, /debug/vars and /metrics (e.g. localhost:8643)"},
	{func(c *Config) any { return &c.ScrapeInterval }, "", "scrape-interval", 0, 1, most, "self-monitoring scrape period; the scraper, history and alerts are always on, so there is no period 0"},
	{func(c *Config) any { return &c.HistoryRetention }, "", "history-retention", 0, 0, most, "how much scraped telemetry history to keep; 0 keeps all of it"},
	{func(c *Config) any { return &c.HistoryFile }, "", "history-file", 0, 0, most, "persist scraped history to this file on shutdown and reload it on boot"},
	{func(c *Config) any { return &c.AuditResolveInterval }, "", "audit-resolve-interval", 0, 1, most, "how often the audit resolver joins predictions with actuals; the prediction ledger is always on, so there is no interval 0"},
	{func(c *Config) any { return &c.AuditFile }, "", "audit-file", 0, 0, most, "persist the audit ledger to this file on shutdown and reload it on boot"},
	{func(c *Config) any { return &c.IncidentDir }, "", "incident-dir", 0, 0, most, "capture incident bundles (profiles, logs, spans, metric windows) under this directory when an SLO fires; empty disables the flight recorder"},
	{func(c *Config) any { return &c.IncidentCooldown }, "", "incident-cooldown", 0, 1, most, "minimum spacing between SLO-triggered captures of the same rule"},
	{func(c *Config) any { return &c.ProfileBaseline }, "", "profile-baseline", 0, 0, most, "persist the profiling baseline snapshot to this file and reload it on boot"},
}

// name is how messages refer to the setting: its YAML key and its flag.
func (s setting) name() string {
	switch {
	case s.flag == "":
		return s.key
	case s.key == "":
		return "-" + s.flag
	}
	return s.key + " (-" + s.flag + ")"
}

// fromYAML stores raw, the value the YAML file gives for s.key, in c.
func (s setting) fromYAML(c *Config, raw any) error {
	if p, ok := s.field(c).(*string); ok {
		v, ok := raw.(string)
		if !ok {
			return fmt.Errorf("config: %s is %T, want string", s.key, raw)
		}
		*p = v
		return nil
	}
	var x float64
	switch v := raw.(type) {
	case float64:
		x = v
	case int64:
		x = float64(v)
	default:
		return fmt.Errorf("config: %s is %T, want number", s.key, raw)
	}
	switch p := s.field(c).(type) {
	case *float64:
		*p = x
	case *time.Duration:
		x *= float64(s.unit)
		if !(math.Abs(x) <= most) {
			return fmt.Errorf("config: %s is %v, too large for a duration", s.key, raw)
		}
		*p = time.Duration(x)
	case *int:
		if x != math.Trunc(x) || math.Abs(x) > most {
			return fmt.Errorf("config: %s is %v, want a whole number (below 2^62)", s.key, raw)
		}
		*p = int(x)
	}
	return nil
}

// check reports c's value of the setting if it is outside the row's
// bounds.
func (s setting) check(c *Config) error {
	var v any     // the value, as messages show it
	var x float64 // the value, as the bounds measure it
	bound := func(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }
	switch p := s.field(c).(type) {
	case *int:
		v, x = *p, float64(*p)
	case *float64:
		v, x = *p, *p
	case *time.Duration:
		v, x = *p, float64(*p)
		bound = func(b float64) string { return time.Duration(b).String() }
	case *string:
		v, x = fmt.Sprintf("%q (%d characters)", *p, len(*p)), float64(len(*p))
	}
	switch {
	case x >= s.min && x <= s.max: // written so that NaN fails
		return nil
	case x < s.min:
		return fmt.Errorf("config: %s is %v, want at least %s: %s", s.name(), v, bound(s.min), s.help)
	}
	return fmt.Errorf("config: %s is %v, want at most %s: %s", s.name(), v, bound(s.max), s.help)
}

// Flags registers, for every setting that has a flag, that flag on fs,
// bound to c's field and defaulting to (and documenting in -h) the
// value c holds now.
func (c *Config) Flags(fs *flag.FlagSet) {
	for _, s := range settings {
		if s.flag == "" {
			continue
		}
		switch p := s.field(c).(type) {
		case *int:
			fs.IntVar(p, s.flag, *p, s.help)
		case *float64:
			fs.Float64Var(p, s.flag, *p, s.help)
		case *time.Duration:
			fs.DurationVar(p, s.flag, *p, s.help)
		case *string:
			fs.StringVar(p, s.flag, *p, s.help)
		}
	}
}

// LoadUnderFlags replaces c, whose Flags fs has parsed a command line
// into, with the configuration file at path, and then puts back every
// flag that command line gave: a given flag beats the file, an omitted
// one leaves the file's value (or the default) in force. fs.Visit is
// what tells the two apart, so no flag needs a "not given" value.
func (c *Config) LoadUnderFlags(path string, fs *flag.FlagSet) error {
	given := map[string]string{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = f.Value.String() })
	loaded, err := Load(path)
	if err != nil {
		return err
	}
	*c = loaded
	for name, value := range given {
		if err := fs.Set(name, value); err != nil {
			return err
		}
	}
	return nil
}
