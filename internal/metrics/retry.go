package metrics

import (
	"errors"
	"fmt"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/tsdb"
)

// RetryConfig tunes the retrying provider decorator. Every field is
// taken literally — the defaults are config.Default()'s to state — so
// the zero value is a pass-through that only counts failures.
type RetryConfig struct {
	// Retries is the number of additional attempts after the first
	// failed one. 0 never retries.
	Retries int
	// Backoff is the delay before the first retry; it doubles after
	// every further attempt. 0 retries immediately.
	Backoff time.Duration
	// Timeout bounds each individual attempt; an attempt that exceeds
	// it fails as ErrUnavailable (the in-flight call is abandoned, the
	// Provider interface carries no context). 0 disables the bound.
	Timeout time.Duration
}

// RetryingProvider decorates a Provider with per-call timeouts and
// retry-with-exponential-backoff on transient failures
// (ErrUnavailable, including timeouts). Definitive results — data,
// ErrNoData, malformed-argument errors — pass through untouched on the
// first attempt. Retries and exhausted-retry failures are counted in
// caladrius_fetch_retries_total / caladrius_fetch_failures_total.
type RetryingProvider struct {
	inner    Provider
	cfg      RetryConfig
	retries  *instrument.Counter
	failures *instrument.Counter
	sleep    func(time.Duration) // injectable for tests
}

// NewRetryingProvider wraps inner, counting into reg.
func NewRetryingProvider(inner Provider, cfg RetryConfig, reg *instrument.Registry) *RetryingProvider {
	reg.SetHelp("caladrius_fetch_retries_total", "Metrics-provider fetch attempts retried after a transient failure.")
	reg.SetHelp("caladrius_fetch_failures_total", "Metrics-provider fetches that failed after exhausting retries.")
	l := instrument.Labels{"provider": "metrics"}
	return &RetryingProvider{
		inner:    inner,
		cfg:      cfg,
		retries:  reg.Counter("caladrius_fetch_retries_total", l),
		failures: reg.Counter("caladrius_fetch_failures_total", l),
		sleep:    time.Sleep,
	}
}

// retryable reports whether the error is worth another attempt: only
// transient unavailability is; ErrNoData and validation errors are
// definitive answers.
func retryable(err error) bool {
	return errors.Is(err, ErrUnavailable)
}

// doFetch runs one provider call under the retry/timeout policy.
func doFetch[T any](p *RetryingProvider, call func() (T, error)) (T, error) {
	backoff := p.cfg.Backoff
	var v T
	var err error
	for attempt := 0; ; attempt++ {
		v, err = attemptFetch(p.cfg.Timeout, call)
		if err == nil || !retryable(err) || attempt >= p.cfg.Retries {
			break
		}
		p.retries.Inc()
		p.sleep(backoff)
		backoff *= 2
	}
	if err != nil && retryable(err) {
		p.failures.Inc()
	}
	return v, err
}

// attemptFetch runs one attempt, bounded by timeout when positive. On
// timeout the in-flight call is abandoned (its goroutine drains into a
// buffered channel) and the attempt reports ErrUnavailable.
func attemptFetch[T any](timeout time.Duration, call func() (T, error)) (T, error) {
	if timeout <= 0 {
		return call()
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := call()
		ch <- result{v, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		var zero T
		return zero, fmt.Errorf("%w: attempt exceeded timeout %s", ErrUnavailable, timeout)
	}
}

// ComponentWindows implements Provider.
func (p *RetryingProvider) ComponentWindows(topology, component string, start, end time.Time) ([]Window, error) {
	return doFetch(p, func() ([]Window, error) {
		return p.inner.ComponentWindows(topology, component, start, end)
	})
}

// InstanceWindows implements Provider.
func (p *RetryingProvider) InstanceWindows(topology, component string, index int, start, end time.Time) ([]Window, error) {
	return doFetch(p, func() ([]Window, error) {
		return p.inner.InstanceWindows(topology, component, index, start, end)
	})
}

// SourceRate implements Provider.
func (p *RetryingProvider) SourceRate(topology string, spouts []string, start, end time.Time) ([]tsdb.Point, error) {
	return doFetch(p, func() ([]tsdb.Point, error) {
		return p.inner.SourceRate(topology, spouts, start, end)
	})
}

// TopologyBackpressureMs implements Provider.
func (p *RetryingProvider) TopologyBackpressureMs(topology string, start, end time.Time) ([]tsdb.Point, error) {
	return doFetch(p, func() ([]tsdb.Point, error) {
		return p.inner.TopologyBackpressureMs(topology, start, end)
	})
}

// StreamEmitTotals implements Provider.
func (p *RetryingProvider) StreamEmitTotals(topology, component string, start, end time.Time) (map[string]float64, error) {
	return doFetch(p, func() (map[string]float64, error) {
		return p.inner.StreamEmitTotals(topology, component, start, end)
	})
}
