package telemetry

import (
	"context"
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

	mu           sync.Mutex
	lastScrape   time.Time
	gen          uint64 // scrape generation, for stale-state pruning
	prevCounters map[string]prevCounter
	prevBuckets  map[string]prevBuckets
	handles      map[string]scrapeHandle
	batch        []tsdb.BatchSample
	collectors   []func()
	afterScrape  []func(time.Time)

	runs    *instrument.Counter
	samples *instrument.Counter
	lastDur *instrument.Gauge
	points  *instrument.Gauge
}

// prevCounter and prevBuckets carry the previous scrape's value of one
// series plus the generation it was last seen in. Series that vanish
// from the registry (unregistered by the usage accountant's top-K
// eviction) are swept after each scrape, so principal churn cannot
// grow the scraper's derived-rate state without bound.
type prevCounter struct {
	v   float64
	gen uint64
}

type prevBuckets struct {
	cum []float64
	gen uint64
}

// scrapeHandle caches one interned tsdb.SeriesHandle, generation-swept
// like the prev* maps. Interning once per series (instead of paying
// label canonicalisation plus a writer-lock round-trip per sample per
// scrape) and flushing the walk through one AppendBatch is what keeps
// the scraper's exclusive TSDB section short under load — measured by
// the benchmark's telemetry.scrape_ms.
type scrapeHandle struct {
	h   *tsdb.SeriesHandle
	gen uint64
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
		reg:          reg,
		db:           db,
		now:          opts.Now,
		prevCounters: map[string]prevCounter{},
		prevBuckets:  map[string]prevBuckets{},
		handles:      map[string]scrapeHandle{},
		runs:         reg.Counter("caladrius_scrape_runs_total", nil),
		samples:      reg.Counter("caladrius_scrape_samples_total", nil),
		lastDur:      reg.Gauge("caladrius_scrape_last_duration_seconds", nil),
		points:       reg.Gauge("caladrius_history_points", nil),
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
	snap := s.reg.Snapshot()
	var dt float64
	if !s.lastScrape.IsZero() {
		dt = t.Sub(s.lastScrape).Seconds()
	}
	s.gen++
	for _, fam := range snap {
		for _, ser := range fam.Series {
			key := fam.Name + "{" + ser.Labels.Signature() + "}"
			switch fam.Type {
			case "counter":
				v := *ser.Value
				s.emit(key, fam.Name, ser.Labels, "", "", t, v)
				if prev, ok := s.prevCounters[key]; ok && dt > 0 {
					pv := prev.v
					if v < pv { // counter reset: rate restarts from zero
						pv = 0
					}
					s.emit(key+"|rate", fam.Name+":rate", ser.Labels, "", "", t, (v-pv)/dt)
				}
				s.prevCounters[key] = prevCounter{v: v, gen: s.gen}
			case "gauge":
				s.emit(key, fam.Name, ser.Labels, "", "", t, *ser.Value)
			case "histogram":
				cum := make([]float64, len(ser.Buckets))
				bounds := make([]float64, len(ser.Buckets))
				for i, b := range ser.Buckets {
					cum[i] = float64(b.Count)
					bounds[i] = b.LE
					le := strconv.FormatFloat(b.LE, 'g', -1, 64)
					if b.LE > 1e300 {
						le = "+Inf"
					}
					s.emit(key+"|le="+le, fam.Name+"_bucket", ser.Labels, "le", le, t, cum[i])
				}
				s.emit(key+"|count", fam.Name+"_count", ser.Labels, "", "", t, float64(*ser.Count))
				s.emit(key+"|sum", fam.Name+"_sum", ser.Labels, "", "", t, *ser.Sum)
				s.appendQuantiles(fam.Name, ser.Labels, key, bounds, cum, t)
				s.prevBuckets[key] = prevBuckets{cum: cum, gen: s.gen}
			}
		}
	}
	// One exclusive TSDB section for the whole walk, instead of a
	// writer-lock round-trip per sample.
	s.db.AppendBatch(s.batch)
	n := len(s.batch)
	s.batch = s.batch[:0]
	// Sweep state of series the registry no longer exports.
	for key, p := range s.prevCounters {
		if p.gen != s.gen {
			delete(s.prevCounters, key)
		}
	}
	for key, p := range s.prevBuckets {
		if p.gen != s.gen {
			delete(s.prevBuckets, key)
		}
	}
	for key, h := range s.handles {
		if h.gen != s.gen {
			delete(s.handles, key)
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

// emit stages one sample into the scrape batch, interning (and
// generation-refreshing) the series handle under hkey. Caller holds
// s.mu; the batch flushes through one AppendBatch at the end of the
// walk.
func (s *Scraper) emit(hkey, metric string, labels instrument.Labels, extraKey, extraVal string, t time.Time, v float64) {
	e, ok := s.handles[hkey]
	if !ok {
		e = scrapeHandle{h: s.db.Handle(metric, scrapeLabels(labels, extraKey, extraVal))}
	}
	e.gen = s.gen
	s.handles[hkey] = e
	s.batch = append(s.batch, tsdb.BatchSample{H: e.h, T: t, V: v})
}

// appendQuantiles derives the per-interval quantile points of one
// histogram series from the bucket increase since the previous scrape.
// Caller holds s.mu.
func (s *Scraper) appendQuantiles(name string, labels instrument.Labels, key string, bounds, cum []float64, t time.Time) {
	prev, ok := s.prevBuckets[key]
	if !ok || len(prev.cum) != len(cum) {
		return
	}
	inc := make([]float64, len(cum))
	for i := range cum {
		d := cum[i] - prev.cum[i]
		if d < 0 { // histogram reset: skip this interval
			return
		}
		inc[i] = d
		if i > 0 && inc[i] < inc[i-1] { // guard against atomic-read skew
			inc[i] = inc[i-1]
		}
	}
	if inc[len(inc)-1] <= 0 { // nothing observed this interval
		return
	}
	for _, q := range scrapeQuantiles {
		v := EstimateQuantile(bounds, inc, q)
		s.emit(key+"|"+QuantileSeries("", q), QuantileSeries(name, q), labels, "", "", t, v)
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

// scrapeLabels converts registry labels to tsdb labels, optionally
// attaching one extra pair (the bucket `le`).
func scrapeLabels(l instrument.Labels, extraKey, extraVal string) tsdb.Labels {
	if len(l) == 0 && extraKey == "" {
		return nil
	}
	out := make(tsdb.Labels, len(l)+1)
	for k, v := range l {
		out[k] = v
	}
	if extraKey != "" {
		out[extraKey] = extraVal
	}
	return out
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
