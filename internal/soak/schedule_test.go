package soak

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func ringCfg(seed int64) ScheduleConfig {
	return ScheduleConfig{
		Mix:         DefaultMix,
		Concurrency: 8,
		Duration:    20 * time.Second,
		Seed:        seed,
	}
}

func TestScheduleSameSeedByteIdentical(t *testing.T) {
	cfg := ringCfg(42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Error("same seed produced different schedules")
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestScheduleValidationTable(t *testing.T) {
	base := ringCfg(1)
	cases := []struct {
		name    string
		mutate  func(*ScheduleConfig)
		wantErr string
	}{
		{"valid", func(c *ScheduleConfig) {}, ""},
		{"zero duration", func(c *ScheduleConfig) { c.Duration = 0 }, "duration > 0"},
		{"empty mix", func(c *ScheduleConfig) { c.Mix = Mix{} }, "non-empty mix"},
		{"closed needs workers", func(c *ScheduleConfig) { c.Concurrency = 0 }, "concurrency > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			_, err := Generate(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestScheduleTenantRotationAndMix(t *testing.T) {
	cfg := ScheduleConfig{
		Mix:          Mix{{OpPredict, 1}, {OpUsage, 1}},
		Concurrency:  4,
		Duration:     time.Second,
		Seed:         3,
		Tenants:      []string{"a", "b", "c"},
		ClosedEvents: 900,
	}
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 900 {
		t.Fatalf("closed-loop ring has %d events, want 900", len(s.Events))
	}
	tenants := map[string]int{}
	ops := map[string]int{}
	for _, e := range s.Events {
		tenants[e.Tenant]++
		ops[e.Op]++
	}
	for _, want := range []string{"a", "b", "c"} {
		if tenants[want] == 0 {
			t.Errorf("tenant %q never scheduled: %v", want, tenants)
		}
	}
	if ops[OpPredict] == 0 || ops[OpUsage] == 0 {
		t.Errorf("mix not represented: %v", ops)
	}
	// 50/50 mix over 900 draws: allow a wide but meaningful band.
	if ops[OpPredict] < 350 || ops[OpPredict] > 550 {
		t.Errorf("predict drawn %d times of 900, want ~450", ops[OpPredict])
	}
}
