package instrument

import (
	"bytes"
	"math"
	"testing"
)

// goldenRegistry holds every kind, help text and none, labels that
// need escaping, a help-only name and values a float format must get
// right.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.SetHelp("caladrius_requests_total", "Requests served, by route and code.")
	r.SetHelp("caladrius_help_only", "A name with help and no instrument.")
	r.Counter("caladrius_requests_total", Labels{"route": "/api/v1/health", "code": "200"}).Add(41)
	r.Counter("caladrius_requests_total", Labels{"route": `/a\b"c` + "\nd", "code": "500"}).Inc()
	r.Counter("caladrius_requests_total", nil).Add(1e21)
	r.Gauge("caladrius_queue_depth", nil).Set(-2.5)
	r.Gauge("caladrius_inf", Labels{"side": "+"}).Set(math.Inf(1))
	r.Gauge("caladrius_inf", Labels{"side": "-"}).Set(math.Inf(-1))
	r.SetHelp("caladrius_latency_seconds", "Request latency.")
	h := r.Histogram("caladrius_latency_seconds", []float64{0.005, 0.1, 1}, Labels{"route": "/x"})
	for _, v := range []float64{0.001, 0.05, 0.05, 2} {
		h.Observe(v)
	}
	r.Histogram("caladrius_latency_seconds", []float64{1, 0.1, 0.005}, nil).Observe(0.2)
	return r
}

const goldenExposition = `# TYPE caladrius_inf gauge
caladrius_inf{side="+"} +Inf
caladrius_inf{side="-"} -Inf
# HELP caladrius_latency_seconds Request latency.
# TYPE caladrius_latency_seconds histogram
caladrius_latency_seconds_bucket{le="0.005"} 0
caladrius_latency_seconds_bucket{le="0.1"} 0
caladrius_latency_seconds_bucket{le="1"} 1
caladrius_latency_seconds_bucket{le="+Inf"} 1
caladrius_latency_seconds_sum 0.2
caladrius_latency_seconds_count 1
caladrius_latency_seconds_bucket{route="/x",le="0.005"} 1
caladrius_latency_seconds_bucket{route="/x",le="0.1"} 3
caladrius_latency_seconds_bucket{route="/x",le="1"} 3
caladrius_latency_seconds_bucket{route="/x",le="+Inf"} 4
caladrius_latency_seconds_sum{route="/x"} 2.101
caladrius_latency_seconds_count{route="/x"} 4
# TYPE caladrius_queue_depth gauge
caladrius_queue_depth -2.5
# HELP caladrius_requests_total Requests served, by route and code.
# TYPE caladrius_requests_total counter
caladrius_requests_total 1e+21
caladrius_requests_total{code="200",route="/api/v1/health"} 41
caladrius_requests_total{code="500",route="/a\\b\"c\nd"} 1
`

// TestExpositionGolden pins the Prometheus text byte for byte.
func TestExpositionGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenExposition {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, goldenExposition)
	}
}
