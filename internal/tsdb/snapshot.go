package tsdb

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"caladrius/internal/atomicfile"
)

// Snapshotting lets a metrics database be written to disk and loaded
// later — the workflow of profiling a topology once (heronsim -save)
// and serving Caladrius from the dump (caladrius -metrics), and the
// daemon's own -history-file. The format is binary and columnar; for a
// text dump of a simulation use heronsim -csv.
//
// A file is one JSON header line (so `head -1` identifies it), then
// one record per series in order of metric, then of its labels' plain
// join (each name=value in name order, joined by ',' without the
// escapes of a canonical key), then of its canonical key. The plain
// join is the order files were written in when it was the store's key;
// the key breaks ties between label sets whose plain joins coincide:
//
//	uvarint len, metric
//	uvarint label count, then per label in key order:
//	    uvarint len, key, uvarint len, value
//	uvarint point count n (≥ 1)
//	n varints: UnixNano of the first point, then deltas
//	n × 8 bytes: float64 bits, little-endian
//
// The same database always produces the same bytes. Raw float bits
// round-trip ±Inf and NaN, which JSON cannot carry.

// snapshotHeader identifies the format. Points is the total point
// count, checked after the last series.
type snapshotHeader struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Retention int64  `json:"retention_ns"`
	Series    uint64 `json:"series"`
	Points    uint64 `json:"points"`
}

const (
	snapshotFormat  = "caladrius-tsdb"
	snapshotVersion = 2

	// minPointBytes is the least a point occupies in a snapshot: a
	// one-byte varint and eight value bytes.
	minPointBytes = 9
)

// WriteSnapshot serialises the full database to w.
func (db *DB) WriteSnapshot(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()

	type entry struct {
		metric    string
		join, key string
		data      *seriesData
	}
	var entries []entry
	var total uint64
	for metric, bySeries := range db.metrics {
		for key, sd := range bySeries {
			entries = append(entries, entry{metric, unescape(key), key, sd})
			total += uint64(sd.len())
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		return cmp.Or(strings.Compare(a.metric, b.metric), strings.Compare(a.join, b.join), strings.Compare(a.key, b.key)) < 0
	})

	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(snapshotHeader{
		Format:    snapshotFormat,
		Version:   snapshotVersion,
		Retention: int64(db.retention),
		Series:    uint64(len(entries)),
		Points:    total,
	}); err != nil {
		return err
	}
	var buf []byte
	var ss []sample
	for _, e := range entries {
		buf = appendString(buf[:0], e.metric)
		pairs := 0
		for k := e.key; k != ""; pairs++ {
			_, _, k, _ = cutPair(k)
		}
		buf = binary.AppendUvarint(buf, uint64(pairs))
		for k := e.key; k != ""; {
			var name, value string
			name, value, k, _ = cutPair(k)
			buf = appendString(appendString(buf, unescape(name)), unescape(value))
		}
		ss = e.data.appendSamples(ss[:0])
		buf = binary.AppendUvarint(buf, uint64(len(ss)))
		var prev int64
		for _, s := range ss {
			buf = binary.AppendVarint(buf, s.ns-prev)
			prev = s.ns
		}
		for _, s := range ss {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// decodeSnapshot loads a database from a snapshot produced by
// WriteSnapshot, restoring its retention setting. The input is
// untrusted: holding it whole in memory lets every declared length be
// checked against the bytes left, so none is allocated before the bytes
// it stands for are known to be present.
func decodeSnapshot(data []byte) (*DB, error) {
	eol := bytes.IndexByte(data, '\n')
	if eol < 0 {
		return nil, fmt.Errorf("tsdb: snapshot header: %w", io.ErrUnexpectedEOF)
	}
	var h snapshotHeader
	if err := json.Unmarshal(data[:eol], &h); err != nil {
		return nil, fmt.Errorf("tsdb: snapshot header: %w", err)
	}
	if h.Format != snapshotFormat {
		return nil, fmt.Errorf("tsdb: snapshot format %q, want %q", h.Format, snapshotFormat)
	}
	if h.Version != snapshotVersion {
		return nil, fmt.Errorf("tsdb: snapshot version %d is not supported (this build reads and writes version %d only): regenerate the file", h.Version, snapshotVersion)
	}
	db := New(time.Duration(h.Retention))
	db.mu.Lock()
	defer db.mu.Unlock()
	d := snapshotDecoder{buf: data[eol+1:]}
	var points uint64
	for i := uint64(0); i < h.Series; i++ {
		n, err := d.series(db)
		if err != nil {
			return nil, fmt.Errorf("tsdb: snapshot series %d/%d: %w", i+1, h.Series, err)
		}
		points += n
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("tsdb: snapshot has %d trailing bytes after %d series", len(d.buf), h.Series)
	}
	if points != h.Points {
		return nil, fmt.Errorf("tsdb: snapshot holds %d points, header declares %d", points, h.Points)
	}
	return db, nil
}

// snapshotDecoder consumes the binary part of a snapshot from the
// front of buf. The first failure sticks in err and empties buf, so
// every later read returns zero; running out of bytes is
// io.ErrUnexpectedEOF.
type snapshotDecoder struct {
	buf []byte
	err error
	// prevMetric, prevJoin and prevKey identify the last series read:
	// series arrive in strictly ascending order (see WriteSnapshot),
	// which rules out duplicates. metric is prevMetric as a string; join
	// and key are the buffers the next record is read into.
	prevMetric, prevJoin, prevKey []byte
	metric                        string
	join, key                     []byte
	// samples holds the record being read, before it is encoded.
	samples []sample
}

func (d *snapshotDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

func (d *snapshotDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n == 0 {
		d.fail(io.ErrUnexpectedEOF)
	} else if n < 0 {
		d.fail(errors.New("varint overflows 64 bits"))
	} else {
		d.buf = d.buf[n:]
	}
	return v
}

// varint reads a zigzag-encoded signed value (binary.AppendVarint).
func (d *snapshotDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// take returns the next n bytes; a declared length is never trusted
// beyond the bytes present.
func (d *snapshotDecoder) take(n uint64) []byte {
	if n > uint64(len(d.buf)) {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *snapshotDecoder) bytes() []byte { return d.take(d.uvarint()) }

// series reads one series record and installs it into db (whose lock
// the caller holds), returning the number of points the record held.
func (d *snapshotDecoder) series(db *DB) (uint64, error) {
	metric := d.bytes()
	// The key and the plain join grow pair by pair: each costs input
	// bytes, so a hostile count runs out of input long before it costs
	// memory.
	join, key := d.join[:0], d.key[:0]
	var prev []byte
	for i, n := 0, d.uvarint(); uint64(i) < n && d.err == nil; i++ {
		k, v := d.bytes(), d.bytes()
		if i > 0 {
			if bytes.Compare(k, prev) <= 0 {
				d.fail(fmt.Errorf("label %q out of order", k))
			}
			join, key = append(join, ','), append(key, ',')
		}
		join = append(append(append(join, k...), '='), v...)
		key = appendPair(key, k, v)
		prev = k
	}
	n := d.uvarint()
	switch {
	case d.err != nil:
		return 0, d.err
	case len(metric) == 0:
		return 0, errors.New("empty metric")
	case n == 0:
		return 0, errors.New("no points")
	case n > uint64(len(d.buf)/minPointBytes):
		return 0, io.ErrUnexpectedEOF
	case cmp.Or(bytes.Compare(metric, d.prevMetric), bytes.Compare(join, d.prevJoin), bytes.Compare(key, d.prevKey)) <= 0:
		return 0, fmt.Errorf("series %s{%s} out of order", metric, key)
	}
	if !bytes.Equal(metric, d.prevMetric) {
		d.metric = string(metric)
	}
	d.prevMetric = metric
	d.join, d.prevJoin = d.prevJoin, join
	d.key, d.prevKey = d.prevKey, key

	ss := slices.Grow(d.samples[:0], int(n))[:n]
	d.samples = ss
	sorted := true
	var ns int64
	for i := range ss {
		prev := ns
		ns += d.varint()
		if i > 0 && ns < prev {
			sorted = false
		}
		ss[i].ns = ns
	}
	values := d.take(8 * n)
	if d.err != nil {
		return 0, d.err
	}
	for i := range ss {
		ss[i].v = math.Float64frombits(binary.LittleEndian.Uint64(values[8*i:]))
	}
	if !sorted {
		slices.SortStableFunc(ss, func(a, b sample) int { return cmp.Compare(a.ns, b.ns) })
	}
	sd := db.seriesLocked(d.metric, string(key))
	sd.push(ss...)
	db.trimLocked(sd)
	return n, nil
}

// SaveFile writes the snapshot to path atomically and durably (see
// atomicfile.Write), creating path's directory if it is missing.
func (db *DB) SaveFile(path string) error {
	return atomicfile.Write(path, db.WriteSnapshot)
}

// LoadFile reads a snapshot file.
func LoadFile(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}
