package soak

import (
	"fmt"
	"math/rand"
	"time"
)

// ScheduleConfig parameterises Generate. The same config (including
// Seed) always yields an identical schedule. Arrival is closed-loop: a
// fixed worker population where each worker issues its next request
// when the previous one completes.
type ScheduleConfig struct {
	Mix Mix
	// Concurrency is the worker population.
	Concurrency int
	// Duration is the wall-clock run bound.
	Duration time.Duration
	// Seed drives every random choice. Same seed, same schedule.
	Seed int64
	// Tenants rotate through the X-Caladrius-Tenant header. Empty
	// defaults to tenant-0..tenant-3.
	Tenants []string
	// ClosedEvents sizes the op/tenant assignment ring. Workers wrap
	// around if they exhaust it. Default 4096.
	ClosedEvents int
}

// Validate checks the config, returning errors that name the fix.
func (c ScheduleConfig) Validate() error {
	if c.Concurrency <= 0 {
		return fmt.Errorf("soak: schedule needs concurrency > 0, got %d", c.Concurrency)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("soak: schedule needs duration > 0, got %s", c.Duration)
	}
	if c.Mix.Total() == 0 {
		return fmt.Errorf("soak: schedule needs a non-empty mix")
	}
	return nil
}

// tenants returns the effective tenant rotation.
func (c ScheduleConfig) tenants() []string {
	if len(c.Tenants) > 0 {
		return c.Tenants
	}
	return []string{"tenant-0", "tenant-1", "tenant-2", "tenant-3"}
}

// Event is one scheduled request, consumed in Seq order by the worker
// population.
type Event struct {
	Seq    int
	Op     string
	Tenant string
}

// Schedule is a generated (op, tenant) ring plus the config that
// produced it.
type Schedule struct {
	Config ScheduleConfig
	Events []Event
}

// Generate builds the deterministic schedule for c.
func Generate(c ScheduleConfig) (*Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	tenants := c.tenants()
	n := c.ClosedEvents
	if n <= 0 {
		n = 4096
	}
	s := &Schedule{Config: c, Events: make([]Event, n)}
	for seq := range s.Events {
		s.Events[seq] = Event{
			Seq:    seq,
			Op:     c.Mix.pick(rng.Intn(c.Mix.Total())),
			Tenant: tenants[rng.Intn(len(tenants))],
		}
	}
	return s, nil
}
