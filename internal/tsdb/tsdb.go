// Package tsdb implements the in-memory time-series metrics database
// Caladrius reads topology metrics from. It stands in for Twitter's
// Cuckoo service and the Heron MetricsCache described in the paper:
// series are identified by a metric name plus a label set (topology,
// component, instance, container, ...), points are stored at arbitrary
// timestamps, and queries support label matching, time ranges,
// cross-series aggregation and downsampling into fixed-width buckets
// (the paper's models consume per-minute series).
//
// The store is safe for concurrent use.
package tsdb

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNoData is returned by queries that match no points.
var ErrNoData = errors.New("tsdb: no data points match the query")

// Labels is a set of key/value identifiers attached to a series.
// Conventional keys used throughout Caladrius:
//
//	topology, component, instance, container, stream
type Labels map[string]string

// canonical renders labels as a series' identity, the key the store
// indexes it by and the only form in which it keeps them: the pairs in
// name order, each name=value, joined by ','. A backslash, ',' or '='
// in a name or value is escaped by a backslash before it, so no two
// label sets share a key, and a set free of those bytes renders as the
// plain join.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	// Label sets are tiny (node/instance/component — rarely past four
	// keys), so fixed stack buffers plus insertion sort beat the
	// allocate-sort-build path; the key's bytes are the one allocation.
	var buf [8]string
	keys := buf[:0]
	if len(l) > len(buf) {
		keys = make([]string, 0, len(l))
	}
	for k := range l {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var stack [128]byte
	key := stack[:0]
	for i, k := range keys {
		if i > 0 {
			key = append(key, ',')
		}
		key = appendPair(key, k, l[k])
	}
	return string(key)
}

// Clone returns an independent copy of l.
func (l Labels) Clone() Labels {
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// appendPair appends one escaped name=value pair of a key to dst.
func appendPair[S ~string | ~[]byte](dst []byte, name, value S) []byte {
	return appendEscaped(append(appendEscaped(dst, name), '='), value)
}

// escaped are the bytes a key escapes.
const escaped = `\,=`

// appendEscaped appends s to dst with a backslash before each
// backslash, ',' and '='.
func appendEscaped[S ~string | ~[]byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\', ',', '=':
			dst = append(dst, '\\')
		}
		dst = append(dst, s[i])
	}
	return dst
}

// unescape undoes appendEscaped. Over a whole key it gives the plain
// join, the order snapshots keep (snapshot.go). It allocates only when
// s holds an escape.
func unescape(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
		}
		b = append(b, s[i])
	}
	return string(b)
}

// cutPair splits a non-empty key into its first pair's escaped name
// and value and the rest of the key after the ',' that ends the pair.
// plain reports that the name holds no escape, so compares as is.
func cutPair(key string) (name, value, rest string, plain bool) {
	plain = true
	i := 0
	for ; key[i] != '='; i++ {
		if key[i] == '\\' {
			i++
			plain = false
		}
	}
	j := i + 1
	for ; j < len(key) && key[j] != ','; j++ {
		if key[j] == '\\' {
			j++
		}
	}
	if j < len(key) {
		rest = key[j+1:]
	}
	return key[:i], key[i+1 : j], rest, plain
}

// compareNames orders two escaped names as the names they stand for,
// the order a key keeps its pairs in; plain says neither holds an
// escape.
func compareNames(a, b string, plain bool) int {
	if plain {
		return strings.Compare(a, b)
	}
	for i, j := 0, 0; ; i, j = i+1, j+1 {
		if i < len(a) && a[i] == '\\' {
			i++
		}
		if j < len(b) && b[j] == '\\' {
			j++
		}
		if i == len(a) || j == len(b) {
			return cmp.Compare(len(a)-i, len(b)-j)
		}
		if a[i] != b[j] {
			return cmp.Compare(a[i], b[j])
		}
	}
}

// keyLabels parses a key back into a fresh label map.
func keyLabels(key string) Labels {
	l := make(Labels, strings.Count(key, ",")+1)
	for key != "" {
		var name, value string
		name, value, key, _ = cutPair(key)
		l[unescape(name)] = unescape(value)
	}
	return l
}

// selector is a label selector as reads match it against keys: its
// pairs in name order, escaped as in a key. A read renders it once; a
// pair free of escaped bytes keeps the selector's own strings.
type selector []selectorPair

type selectorPair struct {
	name, value string // escaped as in a key
	plain       bool   // the name holds no escape
}

// newSelector renders sel into buf's storage, which a caller keeps on
// its stack.
func newSelector(sel Labels, buf []selectorPair) selector {
	s := selector(buf[:0])
	for k, v := range sel {
		s = append(s, selectorPair{name: k, value: v})
		for i := len(s) - 1; i > 0 && s[i].name < s[i-1].name; i-- {
			s[i], s[i-1] = s[i-1], s[i]
		}
	}
	for i := range s {
		p := &s[i]
		if p.plain = !strings.ContainsAny(p.name, escaped); !p.plain {
			p.name = string(appendEscaped(nil, p.name))
		}
		if strings.ContainsAny(p.value, escaped) {
			p.value = string(appendEscaped(nil, p.value))
		}
	}
	return s
}

// matches reports whether every pair of s is one of key's, a pair
// with an empty value also when the key lacks its name, as a label map
// reads a missing name. Both list their pairs in name order, so one
// walk over the key decides, and it stops at the first key name past a
// selector name.
func (s selector) matches(key string) bool {
	for _, p := range s {
		found := false
		for key != "" {
			name, value, rest, plain := cutPair(key)
			c := compareNames(name, p.name, plain && p.plain)
			if c > 0 {
				break
			}
			key = rest
			if c == 0 {
				if value != p.value {
					return false
				}
				found = true
				break
			}
		}
		if !found && p.value != "" {
			return false
		}
	}
	return true
}

// Point is a single observation, as readers get it back: T is in UTC
// and carries no monotonic clock reading.
type Point struct {
	T time.Time
	V float64
}

// Series is an ordered sequence of points with its identity.
type Series struct {
	Metric string
	Labels Labels
	Points []Point
}

// sample is one decoded point: the store's own instant, Unix
// nanoseconds (see unixNano), and value.
type sample struct {
	ns int64
	v  float64
}

// The instants an int64 of Unix nanoseconds can hold:
// 1677-09-21T00:12:43.145224192Z to 2262-04-11T23:47:16.854775807Z.
var (
	minInstant = time.Unix(0, math.MinInt64)
	maxInstant = time.Unix(0, math.MaxInt64)
)

// unixNano is t in Unix nanoseconds, saturated at the ends of the int64
// range where time.Time.UnixNano would wrap around. Every instant that
// enters the store, written or bounding a query, goes through it.
func unixNano(t time.Time) int64 {
	switch {
	case t.Before(minInstant):
		return math.MinInt64
	case t.After(maxInstant):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// point is the Point a sample stands for.
func (s sample) point() Point { return Point{T: time.Unix(0, s.ns).UTC(), V: s.v} }

// seriesData is one series: its samples sorted by instant, equal
// instants in append order, in chunks (chunk.go). Every chunk but the
// last is sealed, and so is the last once full; until then in-order
// appends extend it from tail. Retention drops whole chunks from the
// front and moves head past the cut samples of the one that straddles
// the cutoff. Its identity is the key the store indexes it by.
type seriesData struct {
	chunks []chunk
	head   cursor // before the first retained sample of chunks[0]
	tail   cursor // after the newest sample, where the last chunk goes on
}

// push appends samples in instant order, none older than the newest.
func (sd *seriesData) push(ss ...sample) {
	for len(ss) > 0 {
		if n := len(sd.chunks); n == 0 || sd.chunks[n-1].n == chunkLen {
			k := min(len(ss), chunkLen)
			sd.chunks = append(sd.chunks, newChunk(&sd.tail, ss[:k]))
			ss = ss[k:]
			continue
		}
		ch := &sd.chunks[len(sd.chunks)-1]
		k := min(len(ss), chunkLen-int(ch.n))
		ch.b = sd.tail.put(ch.b, ss[:k])
		ch.last = ss[k-1].ns
		if ch.n += uint8(k); ch.n == chunkLen {
			ch.seal(&sd.tail)
			if len(sd.chunks) == 1 && sd.head.i > 0 {
				// Retention had cut into the stream seal replaced:
				// head moves to the same sample of the sealed one.
				var buf [chunkLen]sample
				cut := sd.head.i
				sd.head = cursor{}
				sd.head.decode(ch, buf[:0:cut])
			}
		}
		ss = ss[k:]
	}
}

// insert places a sample older than the newest one after its equals,
// re-encoding the chunk it falls in (the rare path). A full chunk
// splits in two.
func (sd *seriesData) insert(ns int64, v float64) {
	i := sort.Search(len(sd.chunks), func(i int) bool { return sd.chunks[i].last > ns })
	ss := sd.decode(i, nil)
	j := sort.Search(len(ss), func(k int) bool { return ss[k].ns > ns })
	var re seriesData
	re.push(slices.Insert(ss, j, sample{ns, v})...)
	if last := &re.chunks[len(re.chunks)-1]; i == len(sd.chunks)-1 {
		sd.tail = re.tail
	} else if last.n < chunkLen {
		last.seal(&re.tail) // it stays in the middle
	}
	if i == 0 {
		sd.head = cursor{}
	}
	sd.chunks = slices.Replace(sd.chunks, i, i+1, re.chunks...)
}

// decode appends the retained samples of chunk i to buf.
func (sd *seriesData) decode(i int, buf []sample) []sample {
	var c cursor
	if i == 0 {
		c = sd.head
	}
	ch := &sd.chunks[i]
	return c.decode(ch, slices.Grow(buf, int(ch.n)-c.i))
}

// appendSamples appends every retained sample to buf.
func (sd *seriesData) appendSamples(buf []sample) []sample {
	for i := range sd.chunks {
		buf = sd.decode(i, buf)
	}
	return buf
}

// len is the number of retained samples.
func (sd *seriesData) len() int {
	n := -sd.head.i
	for i := range sd.chunks {
		n += int(sd.chunks[i].n)
	}
	return n
}

// DB is the in-memory time-series store.
type DB struct {
	mu        sync.RWMutex
	metrics   map[string]map[string]*seriesData // metric -> canonical labels -> data
	retention time.Duration                     // 0 = keep forever
}

// New creates an empty store. retention ≤ 0 keeps points forever;
// otherwise GC (called implicitly on writes) drops points older than
// retention relative to the newest point in their series.
func New(retention time.Duration) *DB {
	return &DB{
		metrics:   make(map[string]map[string]*seriesData),
		retention: retention,
	}
}

// SetRetention changes the retention window. d ≤ 0 keeps points
// forever. Existing points are pruned lazily by subsequent writes to
// their series, like any retention expiry.
func (db *DB) SetRetention(d time.Duration) {
	db.mu.Lock()
	db.retention = d
	db.mu.Unlock()
}

// seriesLocked returns (creating if needed) the series of metric with
// the given canonical label key, which a new series is indexed by: the
// one string the store keeps of its labels. Caller holds db.mu.
func (db *DB) seriesLocked(metric, key string) *seriesData {
	bySeries, ok := db.metrics[metric]
	if !ok {
		bySeries = make(map[string]*seriesData)
		db.metrics[metric] = bySeries
	}
	sd, ok := bySeries[key]
	if !ok {
		sd = &seriesData{}
		bySeries[key] = sd
	}
	return sd
}

// appendLocked inserts one point into sd and applies retention. Caller
// holds db.mu.
func (db *DB) appendLocked(sd *seriesData, t time.Time, v float64) {
	ns := unixNano(t)
	if len(sd.chunks) == 0 || ns >= sd.tail.ns {
		sd.push(sample{ns, v})
	} else {
		sd.insert(ns, v)
	}
	db.trimLocked(sd)
}

// trimLocked drops the samples of sd (non-empty) older than the
// retention window, measured back from its newest sample: whole chunks
// first, then head moves past the cut samples of the first chunk left,
// each of which it decodes once. Caller holds db.mu.
func (db *DB) trimLocked(sd *seriesData) {
	if db.retention <= 0 {
		return
	}
	newest := sd.tail.ns
	cutoff := newest - int64(db.retention)
	if cutoff > newest { // wrapped below the int64 range: keep everything
		return
	}
	if k := sort.Search(len(sd.chunks), func(i int) bool { return sd.chunks[i].last >= cutoff }); k > 0 {
		sd.chunks = slices.Delete(sd.chunks, 0, k)
		sd.head = cursor{}
	}
	var one [1]sample
	for first := &sd.chunks[0]; sd.head.i < int(first.n); {
		c := sd.head
		if c.decode(first, one[:0]); c.ns >= cutoff {
			return
		}
		sd.head = c
	}
}

// SeriesHandle is an interned reference to one series, and the only
// way to write: the store's two write entry points, Append for one
// sample and DB.AppendBatch for many, both take a handle. Interning
// pays the label canonicalisation once, and after the first point a
// handle skips the metric/series map lookups too, so producers (like
// the simulator) that emit into a fixed set of series every window keep
// their handles; a one-off writer calls db.Handle(m, l).Append(t, v).
//
// Handles are safe for concurrent use. A handle keeps the labels only
// as their canonical key, so callers may mutate the map passed to
// Handle.
type SeriesHandle struct {
	db     *DB
	metric string
	key    string
	sd     *seriesData // bound lazily on first Append, under db.mu
}

// Handle interns a series reference. The series itself is not created
// until the first Append, so querying behaviour (Metrics, SeriesCount,
// LabelValues) is unchanged for handles that never write.
func (db *DB) Handle(metric string, labels Labels) *SeriesHandle {
	if metric == "" {
		panic("tsdb: empty metric name")
	}
	return &SeriesHandle{db: db, metric: metric, key: labels.canonical()}
}

// Append records one observation into the interned series. The store
// keeps t as Unix nanoseconds: an instant before 1678 or after 2262,
// which that cannot represent, is stored at the nearest end of the
// range, and reads return it there, in UTC. AppendBatch stores its
// samples' T the same way.
func (h *SeriesHandle) Append(t time.Time, v float64) {
	h.db.mu.Lock()
	if h.sd == nil {
		h.sd = h.db.seriesLocked(h.metric, h.key)
	}
	h.db.appendLocked(h.sd, t, v)
	h.db.mu.Unlock()
}

// BatchSample is one observation in an AppendBatch call, addressed by
// an interned SeriesHandle.
type BatchSample struct {
	H *SeriesHandle
	T time.Time
	V float64
}

// AppendBatch records every sample under a single lock acquisition —
// the bulk write API for producers that emit many series at one
// instant (the telemetry scraper flushes a whole registry walk this
// way). Compared to per-sample Append this pays one writer-lock
// round-trip instead of len(samples), so concurrent readers see one
// short exclusive section rather than hundreds of lock convoys. Every
// handle must have been interned from this DB; a foreign handle
// panics.
func (db *DB) AppendBatch(samples []BatchSample) {
	if len(samples) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range samples {
		h := samples[i].H
		if h.db != db {
			panic("tsdb: AppendBatch with a handle from a different DB")
		}
		if h.sd == nil {
			h.sd = db.seriesLocked(h.metric, h.key)
		}
		db.appendLocked(h.sd, samples[i].T, samples[i].V)
	}
}

// SeriesCount returns the number of distinct series stored for metric.
func (db *DB) SeriesCount(metric string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.metrics[metric])
}

// seriesIter reads one series' samples in time order up to an
// inclusive bound, decoding them readBatch at a time. It reads the
// store's chunks: valid only while db.mu is held.
type seriesIter struct {
	key    string   // the series' canonical labels
	chunks []chunk  // chunks[0] is being read
	cur    cursor   // after buf's last sample
	buf    []sample // decoded samples not yet read, from the current one
	back   []sample // buf's storage
	hi     int64    // newest instant in range
}

// readBatch is how many samples an iterator decodes at a time.
const readBatch = 32

// seek returns an iterator at sd's first sample in [lo, hi], decoding
// into back.
func (sd *seriesData) seek(lo, hi int64, back []sample) seriesIter {
	it := seriesIter{hi: hi, back: back}
	c := sort.Search(len(sd.chunks), func(i int) bool { return sd.chunks[i].last >= lo })
	if it.chunks = sd.chunks[c:]; c == 0 {
		it.cur = sd.head
	}
	for it.fill(); len(it.buf) > 0 && it.buf[len(it.buf)-1].ns < lo; {
		it.fill()
	}
	it.buf = it.buf[sort.Search(len(it.buf), func(k int) bool { return it.buf[k].ns >= lo }):]
	return it
}

// ok reports whether the iterator is at a sample in range.
func (it *seriesIter) ok() bool { return len(it.buf) > 0 }

// next moves to the following sample, reporting whether it is in range.
func (it *seriesIter) next() bool {
	if it.buf = it.buf[1:]; len(it.buf) == 0 {
		it.fill()
	}
	return len(it.buf) > 0
}

// fill replaces buf with the next decoded samples in range.
func (it *seriesIter) fill() {
	it.buf = nil
	for len(it.chunks) > 0 && it.cur.i == int(it.chunks[0].n) {
		it.chunks, it.cur = it.chunks[1:], cursor{}
	}
	if len(it.chunks) == 0 {
		return
	}
	ch := &it.chunks[0]
	it.buf = it.cur.decode(ch, it.back[:0])
	if it.buf[len(it.buf)-1].ns > it.hi {
		it.buf = it.buf[:sort.Search(len(it.buf), func(k int) bool { return it.buf[k].ns > it.hi })]
		it.chunks, it.cur = nil, cursor{}
	}
}

// bound is at least the number of in-range samples from the current
// one on: the rest of the chunks up to the one holding hi.
func (it *seriesIter) bound() int {
	n := len(it.buf) - it.cur.i
	for _, ch := range it.chunks {
		n += int(ch.n)
		if ch.last >= it.hi {
			break
		}
	}
	return n
}

// newest is at least the instant of the iterator's last sample in
// range.
func (it *seriesIter) newest() int64 {
	if len(it.chunks) == 0 {
		return it.buf[len(it.buf)-1].ns
	}
	return min(it.chunks[len(it.chunks)-1].last, it.hi)
}

// selectLocked returns, in canonical label order, an iterator at the
// first sample with start ≤ t < end of every series of the metric
// matching the selector that has one. Caller holds db.mu.
func (db *DB) selectLocked(metric string, sel Labels, start, end time.Time) ([]seriesIter, error) {
	bySeries := db.metrics[metric]
	if len(bySeries) == 0 {
		return nil, fmt.Errorf("%w: metric %q", ErrNoData, metric)
	}
	// The stored instants in range are [lo, hi]: a bound beyond either
	// end of the int64 range takes in the instant saturated there.
	lo, hi := unixNano(start), unixNano(end)-1
	if end.After(maxInstant) {
		hi = math.MaxInt64
	}
	type match struct {
		key   string
		sd    *seriesData
		batch int // readBatch, or fewer for a shorter series
	}
	var matched []match
	total := 0
	if !start.After(maxInstant) && end.After(minInstant) {
		var buf [8]selectorPair
		s := newSelector(sel, buf[:0])
		for k, sd := range bySeries {
			if s.matches(k) {
				m := match{k, sd, min(readBatch, sd.len())}
				matched = append(matched, m)
				total += m.batch
			}
		}
	}
	slices.SortFunc(matched, func(a, b match) int { return strings.Compare(a.key, b.key) })
	out := make([]seriesIter, 0, len(matched))
	backs := make([]sample, total)
	for _, m := range matched {
		back := backs[:0:m.batch]
		backs = backs[m.batch:]
		if it := m.sd.seek(lo, hi, back); it.ok() {
			it.key = m.key
			out = append(out, it)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: metric %q selector %v in [%s, %s)", ErrNoData, metric, sel, start, end)
	}
	return out, nil
}

// Query returns all series of the metric matching the selector,
// restricted to points with start ≤ t < end. Series and their points
// are copies; callers may mutate them freely. Series are returned in
// deterministic (canonical label) order.
func (db *DB) Query(metric string, sel Labels, start, end time.Time) ([]Series, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	its, err := db.selectLocked(metric, sel, start, end)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(its))
	for i := range its {
		it := &its[i]
		pts := make([]Point, 0, it.bound())
		for ; it.ok(); it.next() {
			pts = append(pts, it.buf[0].point())
		}
		out[i] = Series{Metric: metric, Labels: keyLabels(it.key), Points: pts}
	}
	return out, nil
}

// Agg names a cross-point aggregation function.
type Agg string

// Supported aggregations.
const (
	AggSum    Agg = "sum"
	AggMean   Agg = "mean"
	AggMin    Agg = "min"
	AggMax    Agg = "max"
	AggCount  Agg = "count"
	AggMedian Agg = "median"
	AggLast   Agg = "last"
)

func aggregate(agg Agg, vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, ErrNoData
	}
	switch agg {
	case AggSum:
		var s float64
		for _, v := range vs {
			s += v
		}
		return s, nil
	case AggMean:
		var s float64
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs)), nil
	case AggMin:
		m := vs[0]
		for _, v := range vs[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	case AggMax:
		m := vs[0]
		for _, v := range vs[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	case AggCount:
		return float64(len(vs)), nil
	case AggMedian:
		cp := append([]float64(nil), vs...)
		sort.Float64s(cp)
		n := len(cp)
		if n%2 == 1 {
			return cp[n/2], nil
		}
		return (cp[n/2-1] + cp[n/2]) / 2, nil
	case AggLast:
		return vs[len(vs)-1], nil
	default:
		return 0, fmt.Errorf("tsdb: unknown aggregation %q", agg)
	}
}

// Aggregate reduces every matching point in the range to one value,
// taking series in canonical label order and each series in time order.
func (db *DB) Aggregate(metric string, sel Labels, start, end time.Time, agg Agg) (float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	its, err := db.selectLocked(metric, sel, start, end)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range its {
		n += its[i].bound()
	}
	vs := make([]float64, 0, n)
	for i := range its {
		for it := &its[i]; it.ok(); it.next() {
			vs = append(vs, it.buf[0].v)
		}
	}
	return aggregate(agg, vs)
}

// Downsample buckets each matching series into fixed-width windows
// aligned to the Unix epoch and reduces each bucket with bucketAgg,
// then merges series point-wise with mergeAgg (use AggSum to combine
// instances into a component). Buckets with no points are omitted.
// The returned series has one point per non-empty bucket, stamped at
// the bucket start, in ascending time order.
//
// It is one pass over the store under the read lock. Within a bucket
// bucketAgg sees a series' points in time order and mergeAgg sees the
// per-series values in canonical series order — the floating-point
// summation order every figure CSV was generated with.
func (db *DB) Downsample(metric string, sel Labels, start, end time.Time, step time.Duration, bucketAgg, mergeAgg Agg) (Series, error) {
	if step <= 0 {
		return Series{}, fmt.Errorf("tsdb: non-positive step %s", step)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	its, err := db.selectLocked(metric, sel, start, end)
	if err != nil {
		return Series{}, err
	}
	bucketOf := func(ns int64) int64 { return ns / int64(step) }
	// heads[i] is the bucket of its[i]'s current sample. Samples are
	// time-sorted, so a series' buckets are contiguous runs and the next
	// output bucket is the smallest head.
	heads := make([]int64, len(its))
	next, last, longest := int64(math.MaxInt64), int64(math.MinInt64), 0
	for i := range its {
		it := &its[i]
		heads[i] = bucketOf(it.buf[0].ns)
		next = min(next, heads[i])
		last = max(last, bucketOf(it.newest()))
		longest = max(longest, it.bound())
	}
	// Sized for series that share their buckets (instances of one
	// component, routes of one panel); others grow it.
	size := longest
	if span := last - next; span >= 0 && span < int64(longest) {
		size = int(span) + 1
	}
	out := Series{Metric: metric, Labels: sel.Clone(), Points: make([]Point, 0, size)}
	run := make([]float64, 0, 16)
	cells := make([]float64, 0, len(its))
	for live := len(its); live > 0; {
		b := next
		next = math.MaxInt64
		cells = cells[:0]
		for i := range its {
			it := &its[i]
			if !it.ok() {
				continue
			}
			if heads[i] == b {
				run = run[:0]
				for it.ok() {
					n := 0
					for ; n < len(it.buf); n++ {
						if nb := bucketOf(it.buf[n].ns); nb != b {
							heads[i] = nb
							break
						}
						run = append(run, it.buf[n].v)
					}
					if it.buf = it.buf[n:]; it.ok() {
						break
					}
					it.fill()
				}
				v, err := aggregate(bucketAgg, run)
				if err != nil {
					return Series{}, err
				}
				cells = append(cells, v)
				if !it.ok() {
					live--
					continue
				}
			}
			next = min(next, heads[i])
		}
		v, err := aggregate(mergeAgg, cells)
		if err != nil {
			return Series{}, err
		}
		out.Points = append(out.Points, Point{T: time.Unix(0, b*int64(step)).UTC(), V: v})
	}
	return out, nil
}

// Latest returns the most recent point across all series matching the
// selector.
func (db *DB) Latest(metric string, sel Labels) (Point, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var best sample
	found := false
	var buf [8]selectorPair
	s := newSelector(sel, buf[:0])
	for key, sd := range db.metrics[metric] {
		if !s.matches(key) || len(sd.chunks) == 0 {
			continue
		}
		if !found || sd.tail.ns > best.ns {
			best = sample{sd.tail.ns, sd.tail.value()}
			found = true
		}
	}
	if !found {
		return Point{}, fmt.Errorf("%w: metric %q selector %v", ErrNoData, metric, sel)
	}
	return best.point(), nil
}

// LabelValues returns the sorted distinct values of the given label key
// across all series of the metric.
func (db *DB) LabelValues(metric, key string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	name := string(appendEscaped(nil, key))
	set := map[string]struct{}{}
	for k := range db.metrics[metric] {
		for k != "" {
			var n, v string
			if n, v, k, _ = cutPair(k); n == name {
				set[unescape(v)] = struct{}{}
				break
			}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// TotalPoints returns the total number of stored points, for tests and
// capacity monitoring.
func (db *DB) TotalPoints() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int
	for _, bySeries := range db.metrics {
		for _, sd := range bySeries {
			n += sd.len()
		}
	}
	return n
}
