package metrics

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"caladrius/internal/telemetry"
	"caladrius/internal/tsdb"
)

// flakyProvider fails its first `failN` calls with the given error,
// then succeeds. The call counter is atomic because timed-out attempts
// keep running in abandoned goroutines.
type flakyProvider struct {
	failN int64
	err   error
	calls atomic.Int64
	// block, when set, makes every call wait on it (timeout tests).
	block chan struct{}
}

func (f *flakyProvider) do() error {
	n := f.calls.Add(1)
	if f.block != nil {
		<-f.block
	}
	if n <= f.failN {
		return f.err
	}
	return nil
}

func (f *flakyProvider) ComponentWindows(_, _ string, _, _ time.Time) ([]Window, error) {
	if err := f.do(); err != nil {
		return nil, err
	}
	return []Window{{Execute: 1}}, nil
}
func (f *flakyProvider) InstanceWindows(_, _ string, _ int, _, _ time.Time) ([]Window, error) {
	if err := f.do(); err != nil {
		return nil, err
	}
	return []Window{{Execute: 1}}, nil
}
func (f *flakyProvider) SourceRate(_ string, _ []string, _, _ time.Time) ([]tsdb.Point, error) {
	if err := f.do(); err != nil {
		return nil, err
	}
	return []tsdb.Point{{V: 1}}, nil
}
func (f *flakyProvider) TopologyBackpressureMs(_ string, _, _ time.Time) ([]tsdb.Point, error) {
	if err := f.do(); err != nil {
		return nil, err
	}
	return []tsdb.Point{{V: 1}}, nil
}
func (f *flakyProvider) StreamEmitTotals(_, _ string, _, _ time.Time) (map[string]float64, error) {
	if err := f.do(); err != nil {
		return nil, err
	}
	return map[string]float64{"s": 1}, nil
}

func unavailable() error { return fmt.Errorf("%w: backend sulking", ErrUnavailable) }

func TestRetryRecoversFromTransientFailures(t *testing.T) {
	inner := &flakyProvider{failN: 2, err: unavailable()}
	reg := telemetry.NewRegistry()
	p := NewRetryingProvider(inner, RetryConfig{Retries: 2, Backoff: 10 * time.Millisecond}, reg)
	var slept []time.Duration
	p.sleep = func(d time.Duration) { slept = append(slept, d) }

	ws, err := p.ComponentWindows("t", "c", time.Time{}, time.Time{})
	if err != nil {
		t.Fatalf("want recovery on 3rd attempt, got %v", err)
	}
	if len(ws) != 1 || inner.calls.Load() != 3 {
		t.Errorf("windows %d, calls %d; want 1 windows after 3 calls", len(ws), inner.calls.Load())
	}
	// Exponential backoff: 10ms then 20ms.
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoff sequence %v, want [10ms 20ms]", slept)
	}
	if v := reg.Counter("caladrius_fetch_retries_total", telemetry.Labels{"provider": "metrics"}).Value(); v != 2 {
		t.Errorf("retries counter = %g, want 2", v)
	}
	if v := reg.Counter("caladrius_fetch_failures_total", telemetry.Labels{"provider": "metrics"}).Value(); v != 0 {
		t.Errorf("failures counter = %g, want 0 (the fetch succeeded)", v)
	}
}

func TestRetryExhaustionCountsFailure(t *testing.T) {
	inner := &flakyProvider{failN: 10, err: unavailable()}
	reg := telemetry.NewRegistry()
	p := NewRetryingProvider(inner, RetryConfig{Retries: 2, Backoff: time.Millisecond}, reg)
	p.sleep = func(time.Duration) {}

	_, err := p.SourceRate("t", []string{"s"}, time.Time{}, time.Time{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable after exhaustion, got %v", err)
	}
	if inner.calls.Load() != 3 {
		t.Errorf("calls = %d, want 3 (1 + 2 retries)", inner.calls.Load())
	}
	if v := reg.Counter("caladrius_fetch_failures_total", telemetry.Labels{"provider": "metrics"}).Value(); v != 1 {
		t.Errorf("failures counter = %g, want 1", v)
	}
}

func TestNoRetryOnDefinitiveErrors(t *testing.T) {
	inner := &flakyProvider{failN: 10, err: fmt.Errorf("%w: empty range", ErrNoData)}
	p := NewRetryingProvider(inner, RetryConfig{Retries: 5, Backoff: time.Millisecond}, nil)
	p.sleep = func(d time.Duration) { t.Errorf("slept %s for a definitive error", d) }

	_, err := p.InstanceWindows("t", "c", 0, time.Time{}, time.Time{})
	if !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData passed through, got %v", err)
	}
	if inner.calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (no retries on ErrNoData)", inner.calls.Load())
	}
}

func TestAttemptTimeoutBecomesUnavailable(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	inner := &flakyProvider{block: block}
	p := NewRetryingProvider(inner, RetryConfig{Retries: 1, Backoff: time.Millisecond, Timeout: 5 * time.Millisecond}, nil)
	p.sleep = func(time.Duration) {}

	_, err := p.TopologyBackpressureMs("t", time.Time{}, time.Time{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want timeout surfaced as ErrUnavailable, got %v", err)
	}
	if inner.calls.Load() != 2 {
		t.Errorf("calls = %d, want 2 (timeouts are retried)", inner.calls.Load())
	}
}

// TestRetryDefaults: RetryConfig has none of its own. The fields are
// literal, so the zero config never retries or sleeps and still counts
// the failure; the policy's defaults are config.Default()'s to state.
func TestRetryDefaults(t *testing.T) {
	inner := &flakyProvider{failN: 1, err: unavailable()}
	reg := telemetry.NewRegistry()
	failing := NewRetryingProvider(inner, RetryConfig{}, reg)
	failing.sleep = func(d time.Duration) { t.Errorf("slept %s with Retries 0", d) }
	if _, err := failing.SourceRate("t", []string{"s"}, time.Time{}, time.Time{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want the first failure passed through, got %v", err)
	}
	if inner.calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (Retries 0 is no retry)", inner.calls.Load())
	}
	if v := reg.Counter("caladrius_fetch_failures_total", telemetry.Labels{"provider": "metrics"}).Value(); v != 1 {
		t.Errorf("failures counter = %g, want 1", v)
	}
	// All five methods pass through a healthy inner provider.
	p := NewRetryingProvider(&flakyProvider{}, RetryConfig{}, nil)
	if _, err := p.ComponentWindows("t", "c", time.Time{}, time.Time{}); err != nil {
		t.Error(err)
	}
	if _, err := p.InstanceWindows("t", "c", 0, time.Time{}, time.Time{}); err != nil {
		t.Error(err)
	}
	if _, err := p.SourceRate("t", []string{"s"}, time.Time{}, time.Time{}); err != nil {
		t.Error(err)
	}
	if _, err := p.TopologyBackpressureMs("t", time.Time{}, time.Time{}); err != nil {
		t.Error(err)
	}
	if _, err := p.StreamEmitTotals("t", "c", time.Time{}, time.Time{}); err != nil {
		t.Error(err)
	}
}
