package config

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"caladrius/internal/yamlite"
)

// The contract every row of the settings table keeps, checked from the
// table itself: there is no second list of keys, flags or units here.

// get reads the row's field of c as a value (not a pointer).
func (s setting) get(c *Config) any { return reflect.ValueOf(s.field(c)).Elem().Interface() }

// put stores x — in the field's own terms, as the bounds are — in the
// row's field of c; a string field gets x characters.
func (s setting) put(c *Config, x float64) {
	switch p := s.field(c).(type) {
	case *int:
		*p = int(x)
	case *float64:
		*p = x
	case *time.Duration:
		*p = time.Duration(x)
	case *string:
		*p = strings.Repeat(":", int(x))
	}
}

// sample returns two distinct in-bounds values for every row, neither
// its default nor in breach of the profiler's cross-field rule, in YAML
// units: what a file would say after "key: ".
func (s setting) sample() (a, b float64) { return 7, 9 }

// text renders a sample as YAML (a number in the key's unit) or as a
// flag argument (Go duration syntax), and want is the field value both
// must produce.
func (s setting) text(x float64, forFlag bool) (text string, want any) {
	switch s.field(&Config{}).(type) {
	case *int:
		return fmt.Sprint(int(x)), int(x)
	case *float64:
		return fmt.Sprint(x), x
	case *time.Duration:
		if forFlag {
			d := time.Duration(x) * time.Second
			return d.String(), d
		}
		return fmt.Sprint(x), time.Duration(x) * s.unit
	}
	addr := fmt.Sprintf(":%d", int(x))
	if forFlag {
		return addr, addr
	}
	return fmt.Sprintf("%q", addr), addr
}

// yamlFor renders one key of the row's section.
func (s setting) yamlFor(value string) string {
	sec, key, _ := strings.Cut(s.key, ".")
	return fmt.Sprintf("%s:\n  %s: %s\n", sec, key, value)
}

func TestSettingsTableShape(t *testing.T) {
	units := map[string]time.Duration{"_seconds": time.Second, "_minutes": time.Minute}
	seenKey, seenFlag, seenField := map[string]bool{}, map[string]bool{}, map[any]bool{}
	var c Config
	keys, flags := 0, 0
	for i, s := range settings {
		if s.key == "" && s.flag == "" {
			t.Errorf("row %d can be set by nothing", i)
		}
		if seenField[s.field(&c)] {
			t.Errorf("%s: its field already has a row", s.name())
		}
		seenField[s.field(&c)] = true
		if s.help == "" || !(s.min <= s.max) {
			t.Errorf("%s: help %q, bounds [%g, %g]", s.name(), s.help, s.min, s.max)
		}
		if s.key != "" {
			keys++
			if seenKey[s.key] || strings.Count(s.key, ".") != 1 {
				t.Errorf("key %q: duplicate, or not section.key", s.key)
			}
			seenKey[s.key] = true
			// The key's suffix is the only place a file's reader learns
			// the unit, so it has to be the unit Parse applies.
			var unit time.Duration
			for suffix, u := range units {
				if strings.HasSuffix(s.key, suffix) {
					unit = u
				}
			}
			_, isDuration := s.field(&c).(*time.Duration)
			if unit != s.unit || (isDuration && unit == 0) {
				t.Errorf("%s: key suffix says unit %s, row says %s", s.key, unit, s.unit)
			}
		}
		if s.flag != "" {
			flags++
			if seenFlag[s.flag] || s.flag == "config" {
				t.Errorf("flag -%s: duplicate", s.flag)
			}
			seenFlag[s.flag] = true
		}
	}
	// The surface: 26 settings, 12 of them scalar keys (plus
	// traffic_models) and 23 flags (plus -config). A change to any of
	// the three numbers changed the daemon's interface and should say so.
	t.Logf("settings: %d (%d keys, %d flags)", len(settings), keys, flags)
	if len(settings) != 26 || keys != 12 || flags != 23 {
		t.Errorf("table has %d settings, %d YAML keys and %d flags, want 26, 12 and 23", len(settings), keys, flags)
	}
	// Every scalar field of Config has a row.
	rt := reflect.TypeOf(c)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Name != "TrafficModels" && !seenField[reflect.ValueOf(&c).Elem().Field(i).Addr().Interface()] {
			t.Errorf("Config.%s has no row in the settings table", f.Name)
		}
	}
}

// TestOffSwitches pins the complete list of settings whose zero value
// switches something off, so a new off-switch is added here on purpose —
// each one doubles the daemon shapes tests must cover. No row's 0 means
// "some other number": a default is what Default() holds.
func TestOffSwitches(t *testing.T) {
	want := []string{
		"fetch.retries (-fetch-retries)",
		"fetch.timeout_seconds (-fetch-timeout)",
		"profiler.interval_seconds (-profile-interval)",
		"-incident-dir",
	}
	var got []string
	for _, s := range settings {
		if strings.Contains(s.help, "disables") {
			got = append(got, s.name())
			if s.min != 0 {
				t.Errorf("%s: help says a zero disables it, but its minimum is %g", s.name(), s.min)
			}
		}
		if strings.Contains(s.help, "uses the") {
			t.Errorf("%s: help %q gives 0 the meaning of another number", s.name(), s.help)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("off-switches = %q\nwant %q", got, want)
	}
}

func TestEverySettingFromYAML(t *testing.T) {
	for _, s := range settings {
		if s.key == "" {
			continue
		}
		a, _ := s.sample()
		text, want := s.text(a, false)
		cfg, err := Parse(s.yamlFor(text))
		if err != nil {
			t.Errorf("%s: %v", s.key, err)
			continue
		}
		if got := s.get(&cfg); got != want {
			t.Errorf("%s: %s gave %v, want %v", s.key, text, got, want)
		}
		// Only that field moved.
		def := Default()
		s.put(&cfg, 0)
		s.put(&def, 0)
		if !reflect.DeepEqual(cfg, def) {
			t.Errorf("%s: setting it changed another field:\n got %+v\nwant %+v", s.key, cfg, def)
		}
	}
}

// parseArgs is cmd/caladrius's parseFlags, less the daemon around it.
func parseArgs(configPath string, args ...string) (Config, error) {
	c := Default()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if configPath != "" {
		if err := c.LoadUnderFlags(configPath, fs); err != nil {
			return c, err
		}
	}
	return c, c.Validate()
}

func TestEverySettingFromFlags(t *testing.T) {
	dir := t.TempDir()
	for _, s := range settings {
		if s.flag == "" {
			continue
		}
		a, b := s.sample()
		arg, want := s.text(b, true)
		cfg, err := parseArgs("", "-"+s.flag, arg)
		if err != nil {
			t.Errorf("-%s %s: %v", s.flag, arg, err)
			continue
		}
		if got := s.get(&cfg); got != want {
			t.Errorf("-%s %s gave %v, want %v", s.flag, arg, got, want)
		}
		if s.key == "" {
			continue
		}
		// Mirrored in the file: a given flag beats it, an omitted one
		// falls through to it — also when the flag is given the default.
		fileText, fileWant := s.text(a, false)
		path := filepath.Join(dir, s.flag+".yaml")
		if err := os.WriteFile(path, []byte(s.yamlFor(fileText)), 0o644); err != nil {
			t.Fatal(err)
		}
		def := Default()
		defArg := fmt.Sprint(s.get(&def))
		for _, c := range []struct {
			args []string
			want any
		}{
			{nil, fileWant},
			{[]string{"-" + s.flag, arg}, want},
			{[]string{"-" + s.flag, defArg}, s.get(&def)},
		} {
			cfg, err := parseArgs(path, c.args...)
			if err != nil {
				t.Errorf("%s with %s: %s and flags %q: %v", s.name(), s.key, fileText, c.args, err)
			} else if got := s.get(&cfg); got != c.want {
				t.Errorf("%s with %s: %s and flags %q gave %v, want %v", s.name(), s.key, fileText, c.args, got, c.want)
			}
		}
	}
}

func TestEveryBoundIsEnforced(t *testing.T) {
	for _, s := range settings {
		var outside []float64
		if !isString(s) || s.min > 0 {
			outside = append(outside, s.min-1)
		}
		if s.max < most {
			outside = append(outside, s.max+1)
		} else if !math.IsInf(s.max, 0) && !isString(s) {
			outside = append(outside, most*1.5)
		}
		if _, ok := s.field(&Config{}).(*float64); ok {
			// A float flag parses "+Inf" and "NaN": an infinite -rate
			// booted, then failed every {} performance request's
			// encode with a 500.
			outside = append(outside, math.Inf(1), math.NaN())
		}
		for _, x := range outside {
			cfg := Default()
			s.put(&cfg, x)
			err := cfg.Validate()
			if err == nil {
				t.Errorf("%s = %v passed Validate; bounds are [%g, %g]", s.name(), s.get(&cfg), s.min, s.max)
				continue
			}
			if s.key != "" && !strings.Contains(err.Error(), s.key) || s.flag != "" && !strings.Contains(err.Error(), "-"+s.flag) {
				t.Errorf("%s: error %q does not name both the key and the flag", s.name(), err)
			}
		}
		// Both ends of the interval are inside it.
		for _, x := range []float64{s.min, s.max} {
			if math.IsInf(x, 0) || (isString(s) && x == most) {
				continue
			}
			cfg := Default()
			cfg.ProfileInterval = 0 // the cross-field rule is not under test
			s.put(&cfg, x)
			if err := s.check(&cfg); err != nil {
				t.Errorf("%s at its bound %g: %v", s.name(), x, err)
			}
		}
	}
}

func isString(s setting) bool { _, ok := s.field(&Config{}).(*string); return ok }

// docExample is the YAML example in the package comment.
func docExample(t testing.TB) string {
	src, err := os.ReadFile("config.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Example:\n//\n(.*?)package config`).FindSubmatch(src)
	if m == nil {
		t.Fatal("config.go's package comment has no Example block")
	}
	var b strings.Builder
	for _, line := range strings.Split(string(m[1]), "\n") {
		b.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "//"), "\t") + "\n")
	}
	return b.String()
}

// The documented example parses — so it names only real keys — and
// shows every key there is.
func TestDocExample(t *testing.T) {
	example := docExample(t)
	if _, err := Parse(example); err != nil {
		t.Fatalf("the package comment's example does not parse: %v\n%s", err, example)
	}
	doc, err := yamlite.ParseMap(example)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range settings {
		if sec, key, ok := strings.Cut(s.key, "."); ok {
			if m, _ := doc[sec].(map[string]any); m[key] == nil {
				t.Errorf("the package comment's example does not show %s", s.key)
			}
		}
	}
}

// FuzzConfigParse: no configuration text makes Parse panic, and what it
// accepts is valid.
func FuzzConfigParse(f *testing.F) {
	f.Add(docExample(f))
	for _, c := range parseErrorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := Parse(src)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Parse accepted %q but Validate refuses the result: %v", src, err)
		}
	})
}
