package telemetry

import (
	"context"
	"math"
	"strconv"
	"sync"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/tsdb"
)

// Scraper periodically walks a Registry and appends every instrument
// into an embedded tsdb.DB, turning the point-in-time /metrics snapshot
// into queryable history — the same Cuckoo-style substrate the paper's
// models consume (§IV), dogfooded for the service's own telemetry.
//
// What gets appended per scrape, stamped at the scrape time:
//
//   - counters: the running total under the metric name, plus a derived
//     per-second rate under "<name>:rate" (from the second scrape on;
//     counter resets clamp to a restart-from-zero rate).
//   - gauges: the current value under the metric name.
//   - histograms: "<name>_count", "<name>_sum" and one cumulative
//     "<name>_bucket" series per bound with an extra `le` label, plus
//     derived per-interval quantile gauges under "<name>:p50" /
//     "<name>:p95" / "<name>:p99", interpolated from the bucket increase
//     since the previous scrape — the windowed latency series dashboards
//     and SLO rules want.
//
// The scraper registers its own instruments (scrape runs, samples
// appended, last duration, retained points) into the same registry, so
// the pipeline observes itself.
type Scraper struct {
	reg *instrument.Registry
	db  *tsdb.DB
	now func() time.Time

	mu          sync.Mutex
	lastScrape  time.Time
	gen         uint64 // scrape generation, for stale-state pruning
	state       map[seriesKey]*scraped
	inc         []float64 // one histogram's bucket increase, reused
	batch       []tsdb.BatchSample
	collectors  []func()
	afterScrape []func(time.Time)

	runs    *instrument.Counter
	samples *instrument.Counter
	lastDur *instrument.Gauge
	points  *instrument.Gauge
}

// seriesKey names one registry series: its metric name and the
// registry's own label signature for it.
type seriesKey struct{ name, sig string }

// scraped is the scrape state of one registry series. It is made the
// first time a scrape sees the series and swept by the first scrape
// that no longer does (the usage accountant's top-K eviction
// unregisters series), so principal churn cannot grow it without
// bound.
//
// out holds the tsdb.SeriesHandles the series writes, in order: a
// counter's total and rate; a gauge's value; a histogram's buckets,
// count, sum and quantiles. A handle creates no series before its
// first append. Interning them once per series and flushing the walk
// through one AppendBatch keeps the scraper's exclusive TSDB section
// short under load (the benchmark's telemetry.scrape_ms).
type scraped struct {
	out    []*tsdb.SeriesHandle
	bounds []float64 // a histogram's upper bounds, +Inf last
	prev   []float64 // the previous scrape's counter total or cumulative buckets; empty before one
	gen    uint64
}

// scrapeQuantiles are the per-interval histogram quantiles the scraper
// derives.
var scrapeQuantiles = [...]float64{0.5, 0.95, 0.99}

// ScrapeOptions configures a Scraper.
type ScrapeOptions struct {
	// Now stamps scrape times in Run. Default: time.Now.
	Now func() time.Time
}

// NewScraper builds a scraper from reg into db.
func NewScraper(reg *instrument.Registry, db *tsdb.DB, opts ScrapeOptions) *Scraper {
	if reg == nil || db == nil {
		panic("telemetry: scraper needs a registry and a history db")
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	reg.SetHelp("caladrius_scrape_runs_total", "Self-monitoring scrape cycles completed.")
	reg.SetHelp("caladrius_scrape_samples_total", "Samples appended into the history store.")
	reg.SetHelp("caladrius_scrape_last_duration_seconds", "Wall-clock cost of the most recent scrape.")
	reg.SetHelp("caladrius_history_points", "Points retained in the history store after the last scrape.")
	return &Scraper{
		reg:     reg,
		db:      db,
		now:     opts.Now,
		state:   map[seriesKey]*scraped{},
		runs:    reg.Counter("caladrius_scrape_runs_total", nil),
		samples: reg.Counter("caladrius_scrape_samples_total", nil),
		lastDur: reg.Gauge("caladrius_scrape_last_duration_seconds", nil),
		points:  reg.Gauge("caladrius_history_points", nil),
	}
}

// AddCollector registers fn to run at the start of every scrape, for
// pull-style sources that refresh gauges on demand (see
// RegisterRuntime).
func (s *Scraper) AddCollector(fn func()) {
	s.mu.Lock()
	s.collectors = append(s.collectors, fn)
	s.mu.Unlock()
}

// AfterScrape registers fn to run after every scrape with the scrape
// timestamp — the hook the SLO evaluator uses to re-check rules on
// fresh data.
func (s *Scraper) AfterScrape(fn func(time.Time)) {
	s.mu.Lock()
	s.afterScrape = append(s.afterScrape, fn)
	s.mu.Unlock()
}

// QuantileSeries names the derived quantile series the scraper appends
// for a histogram, e.g. QuantileSeries("x_seconds", 0.95) = "x_seconds:p95".
func QuantileSeries(name string, q float64) string {
	return name + ":p" + strconv.FormatFloat(q*100, 'g', -1, 64)
}

// ScrapeOnce performs one scrape stamped at t and reports how many
// samples were appended. Exposed so tests and shutdown paths can force
// a deterministic scrape.
func (s *Scraper) ScrapeOnce(t time.Time) int {
	begin := time.Now()
	s.mu.Lock()
	for _, c := range s.collectors {
		c()
	}
	var dt float64
	if !s.lastScrape.IsZero() {
		dt = t.Sub(s.lastScrape).Seconds()
	}
	s.gen++
	s.reg.Each(func(name, sig string, labels instrument.Labels, inst any) {
		st := s.state[seriesKey{name, sig}]
		if st == nil {
			st = s.newScraped(name, labels, inst)
			s.state[seriesKey{name, sig}] = st
		}
		st.gen = s.gen
		switch inst := inst.(type) {
		case *instrument.Counter:
			v := inst.Value()
			s.emit(st.out[0], t, v)
			if len(st.prev) == 1 && dt > 0 {
				pv := st.prev[0]
				if v < pv { // counter reset: rate restarts from zero
					pv = 0
				}
				s.emit(st.out[1], t, (v-pv)/dt)
			}
			st.prev = append(st.prev[:0], v)
		case *instrument.Gauge:
			s.emit(st.out[0], t, inst.Value())
		case *instrument.Histogram:
			cum := inst.Cumulative()
			sum, count := inst.Sum(), inst.Count()
			for i, c := range cum {
				s.emit(st.out[i], t, float64(c))
			}
			s.emit(st.out[len(cum)], t, float64(count))
			s.emit(st.out[len(cum)+1], t, sum)
			s.appendQuantiles(st, cum, t)
			st.prev = st.prev[:0]
			for _, c := range cum {
				st.prev = append(st.prev, float64(c))
			}
		}
	})
	// One exclusive TSDB section for the whole walk, instead of a
	// writer-lock round-trip per sample.
	s.db.AppendBatch(s.batch)
	n := len(s.batch)
	s.batch = s.batch[:0]
	// Sweep state of series the registry no longer exports.
	for k, st := range s.state {
		if st.gen != s.gen {
			delete(s.state, k)
		}
	}
	s.lastScrape = t
	hooks := make([]func(time.Time), len(s.afterScrape))
	copy(hooks, s.afterScrape)
	s.mu.Unlock()

	s.runs.Inc()
	s.samples.Add(float64(n))
	s.lastDur.Set(time.Since(begin).Seconds())
	s.points.Set(float64(s.db.TotalPoints()))
	for _, h := range hooks {
		h(t)
	}
	return n
}

// newScraped interns the handles of one registry series. Caller holds
// s.mu and, inside the registry walk, its read lock; db.Handle copies
// labels.
func (s *Scraper) newScraped(name string, labels instrument.Labels, inst any) *scraped {
	l := tsdb.Labels(labels)
	switch inst := inst.(type) {
	case *instrument.Counter:
		return &scraped{out: []*tsdb.SeriesHandle{s.db.Handle(name, l), s.db.Handle(name+":rate", l)}}
	case *instrument.Histogram:
		st := &scraped{bounds: append(append([]float64(nil), inst.Bounds()...), math.Inf(1))}
		le := make(tsdb.Labels, len(l)+1)
		for k, v := range l {
			le[k] = v
		}
		for _, b := range st.bounds {
			le["le"] = strconv.FormatFloat(b, 'g', -1, 64) // +Inf formats as "+Inf"
			st.out = append(st.out, s.db.Handle(name+"_bucket", le))
		}
		st.out = append(st.out, s.db.Handle(name+"_count", l), s.db.Handle(name+"_sum", l))
		for _, q := range scrapeQuantiles {
			st.out = append(st.out, s.db.Handle(QuantileSeries(name, q), l))
		}
		return st
	default: // *instrument.Gauge
		return &scraped{out: []*tsdb.SeriesHandle{s.db.Handle(name, l)}}
	}
}

// emit stages one sample into the scrape batch. Caller holds s.mu; the
// batch flushes through one AppendBatch at the end of the walk.
func (s *Scraper) emit(h *tsdb.SeriesHandle, t time.Time, v float64) {
	s.batch = append(s.batch, tsdb.BatchSample{H: h, T: t, V: v})
}

// appendQuantiles derives the per-interval quantile points of one
// histogram series from the bucket increase since the previous scrape.
// Caller holds s.mu.
func (s *Scraper) appendQuantiles(st *scraped, cum []uint64, t time.Time) {
	if len(st.prev) != len(cum) {
		return
	}
	inc := s.inc[:0]
	for i, c := range cum {
		d := float64(c) - st.prev[i]
		if d < 0 { // histogram reset: skip this interval
			return
		}
		if i > 0 && d < inc[i-1] { // guard against atomic-read skew
			d = inc[i-1]
		}
		inc = append(inc, d)
	}
	s.inc = inc
	if inc[len(inc)-1] <= 0 { // nothing observed this interval
		return
	}
	for j, q := range scrapeQuantiles {
		s.emit(st.out[len(cum)+2+j], t, EstimateQuantile(st.bounds, inc, q))
	}
}

// EstimateQuantile interpolates the q-quantile from cumulative bucket
// counts with upper bounds — the histogram_quantile estimate. A rank
// landing in the +Inf bucket reports the highest finite bound, and an
// empty or all-zero histogram reports 0, never NaN. The scraper's :pNN
// series and calctl's metrics table both use it.
func EstimateQuantile(bounds, cum []float64, q float64) float64 {
	if len(cum) == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, below := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			if bounds[i] > 1e300 {
				return lo
			}
			span := c - below
			if span <= 0 {
				return lo
			}
			return lo + (bounds[i]-lo)*(rank-below)/span
		}
		lo, below = bounds[i], c
	}
	return lo
}

// Run scrapes every interval, which must be positive, until ctx is
// cancelled.
func (s *Scraper) Run(ctx context.Context, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.ScrapeOnce(s.now())
		}
	}
}
