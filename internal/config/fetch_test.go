package config

import (
	"strings"
	"testing"
	"time"
)

func TestParseFetchSection(t *testing.T) {
	cfg, err := Parse(`
fetch:
  retries: 5
  timeout_seconds: 2.5
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FetchRetries != 5 {
		t.Errorf("FetchRetries = %d, want 5", cfg.FetchRetries)
	}
	if cfg.FetchTimeout != 2500*time.Millisecond {
		t.Errorf("FetchTimeout = %s, want 2.5s", cfg.FetchTimeout)
	}

	// Absent section keeps the defaults.
	cfg, err = Parse(`api: {addr: ":1"}`)
	if err != nil {
		t.Fatal(err)
	}
	def := Default()
	if cfg.FetchRetries != def.FetchRetries || cfg.FetchTimeout != def.FetchTimeout {
		t.Errorf("fetch defaults not kept: %+v", cfg)
	}

	// Zero disables retrying and the per-attempt bound — valid.
	cfg, err = Parse("fetch:\n  retries: 0\n  timeout_seconds: 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FetchRetries != 0 || cfg.FetchTimeout != 0 {
		t.Errorf("zeroed fetch = %+v", cfg)
	}
}

func TestParseFetchErrors(t *testing.T) {
	cases := map[string]string{
		"fetch:\n  retries: -1\n":         "fetch.retries (-fetch-retries) is -1, want at least 0",
		"fetch:\n  backoff_ms: 50\n":      "unknown key fetch.backoff_ms (keys of fetch: retries, timeout_seconds)",
		"fetch:\n  timeout_seconds: -1\n": "fetch.timeout_seconds (-fetch-timeout) is -1s, want at least 0s",
		"fetch: nope\n":                   "want mapping",
		"fetch:\n  retries: lots\n":       "want number",
	}
	for src, want := range cases {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", src, err, want)
		}
	}
}
