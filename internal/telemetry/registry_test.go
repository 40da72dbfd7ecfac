package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"caladrius/internal/instrument"
)

// The instrument registry's tests sit beside Handler, which serves the
// exposition they pin as /metrics. The one that reads a histogram's
// unexported bounds is in internal/instrument.

func TestCounterGaugeBasics(t *testing.T) {
	r := instrument.NewRegistry()
	c := r.Counter("requests_total", instrument.Labels{"route": "/x"})
	c.Inc()
	c.Add(2.5)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %g, want 3.5", got)
	}
	// Idempotent registration returns the same instrument.
	if c2 := r.Counter("requests_total", instrument.Labels{"route": "/x"}); c2 != c {
		t.Error("re-registration returned a new counter")
	}
	g := r.Gauge("in_flight", nil)
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %g, want 1", got)
	}
	g.Set(40)
	g.Add(2)
	if got := g.Value(); got != 42 {
		t.Errorf("gauge = %g, want 42", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := instrument.NewRegistry()
	r.Counter("m", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering one name as two kinds did not panic")
		}
	}()
	r.Gauge("m", nil)
}

// TestPrometheusGolden pins the exact text exposition format.
func TestPrometheusGolden(t *testing.T) {
	r := instrument.NewRegistry()
	r.SetHelp("http_requests_total", "Requests served.")
	r.Counter("http_requests_total", instrument.Labels{"route": "/a", "class": "2xx"}).Add(3)
	r.Counter("http_requests_total", instrument.Labels{"route": "/b", "class": "5xx"}).Inc()
	r.Gauge("in_flight", nil).Set(2)
	h := r.Histogram("latency_seconds", []float64{0.1, 0.5}, instrument.Labels{"route": "/a"})
	h.Observe(0.05)
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{class="2xx",route="/a"} 3
http_requests_total{class="5xx",route="/b"} 1
# TYPE in_flight gauge
in_flight 2
# TYPE latency_seconds histogram
latency_seconds_bucket{route="/a",le="0.1"} 1
latency_seconds_bucket{route="/a",le="0.5"} 3
latency_seconds_bucket{route="/a",le="+Inf"} 4
latency_seconds_sum{route="/a"} 2.55
latency_seconds_count{route="/a"} 4
`
	if b.String() != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := instrument.NewRegistry()
	r.Counter("m", instrument.Labels{"q": "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `q="a\"b\\c\nd"`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestSnapshotJSONAndHandler(t *testing.T) {
	// An empty registry is an empty list, not null.
	if b, err := json.Marshal(instrument.NewRegistry().Snapshot()); err != nil || string(b) != "[]" {
		t.Errorf("empty snapshot = %s, %v; want []", b, err)
	}
	r := instrument.NewRegistry()
	r.Counter("c", nil).Add(7)
	r.Histogram("h", []float64{1}, nil).Observe(0.5)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("families = %d", len(snap))
	}
	if snap[0].Name != "c" || snap[0].Type != "counter" || *snap[0].Series[0].Value != 7 {
		t.Errorf("counter snapshot = %+v", snap[0])
	}
	if snap[1].Name != "h" || len(snap[1].Series[0].Buckets) != 2 || *snap[1].Series[0].Count != 1 {
		t.Errorf("histogram snapshot = %+v", snap[1])
	}

	// Handler: text by default, JSON on request.
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	respJ, err := srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer respJ.Body.Close()
	var decoded []instrument.MetricJSON
	if err := json.NewDecoder(respJ.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 {
		t.Errorf("JSON families = %d", len(decoded))
	}
}

// TestRegistryConcurrency exercises registration and updates from many
// goroutines; run under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := instrument.NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_total", nil)
			h := r.Histogram("shared_hist", []float64{1, 10}, nil)
			g := r.Gauge("shared_gauge", nil)
			own := r.Counter("per_worker_total", instrument.Labels{"w": fmt.Sprintf("%d", w)})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				own.Inc()
				h.Observe(float64(i % 20))
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	// Concurrent readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			_ = r.WritePrometheus(&b)
			_ = r.Snapshot()
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", nil).Value(); got != workers*perWorker {
		t.Errorf("shared counter = %g, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared_hist", []float64{1, 10}, nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("shared_gauge", nil).Value(); got != 0 {
		t.Errorf("gauge = %g, want 0", got)
	}
}

// TestHistogramExemplar pins exemplar semantics: the latest traced
// observation wins, untraced observations leave it alone, and the
// exemplar rides out in the JSON snapshot.
func TestHistogramExemplar(t *testing.T) {
	r := instrument.NewRegistry()
	h := r.Histogram("lat_ex", []float64{1}, nil)
	if h.Exemplar() != nil {
		t.Fatal("fresh histogram has an exemplar")
	}
	h.ObserveExemplar(0.25, "req-1")
	h.ObserveExemplar(0.75, "req-2")
	h.ObserveExemplar(0.5, "") // untraced: observed but no exemplar update
	ex := h.Exemplar()
	if ex == nil || ex.Trace != "req-2" || ex.Value != 0.75 {
		t.Fatalf("exemplar = %+v", ex)
	}
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	for _, m := range r.Snapshot() {
		if m.Name != "lat_ex" {
			continue
		}
		if m.Series[0].Exemplar == nil || m.Series[0].Exemplar.Trace != "req-2" {
			t.Fatalf("snapshot exemplar = %+v", m.Series[0].Exemplar)
		}
		return
	}
	t.Fatal("lat_ex not in snapshot")
}
