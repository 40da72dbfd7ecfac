package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// ReadSnapshot decodes a snapshot from r the way LoadFile decodes a
// file.
func ReadSnapshot(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}

func populated(t testing.TB) *DB {
	t.Helper()
	db := New(0)
	for i := 0; i < 30; i++ {
		db.Handle("execute-count", Labels{"component": "splitter", "instance": "0"}).Append(minuteAt(i), float64(i*10))
		db.Handle("execute-count", Labels{"component": "splitter", "instance": "1"}).Append(minuteAt(i), float64(i*11))
		db.Handle("cpu-load", Labels{"component": "counter"}).Append(minuteAt(i), 0.5+float64(i)/100)
	}
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := populated(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalPoints() != db.TotalPoints() {
		t.Fatalf("points = %d, want %d", back.TotalPoints(), db.TotalPoints())
	}
	orig, err := db.Query("execute-count", nil, minuteAt(0), minuteAt(100))
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Query("execute-count", nil, minuteAt(0), minuteAt(100))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Error("round-tripped series differ")
	}
	if !reflect.DeepEqual(db.Metrics(), back.Metrics()) {
		t.Errorf("metrics = %v vs %v", back.Metrics(), db.Metrics())
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	db := populated(t)
	var a, b bytes.Buffer
	if err := db.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshots of the same DB differ")
	}
}

func TestSnapshotPreservesRetention(t *testing.T) {
	db := New(42 * time.Minute)
	db.Handle("m", nil).Append(minuteAt(0), 1)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.retention != 42*time.Minute {
		t.Errorf("retention = %s", back.retention)
	}
}

func TestSnapshotErrors(t *testing.T) {
	two := func(a, b []byte) []byte { return append(a, b...) }
	cases := []struct {
		src  string
		want string // a fragment of the error
	}{
		{"", "header: unexpected EOF"},
		{"not json\n", "header: invalid character"},
		{`{"format":"other","version":2}` + "\n", `format "other"`},
		{`{"format":"caladrius-tsdb","version":9}` + "\n", "version 9 is not supported"},
		// A file from before the binary format is told the way out.
		{`{"format":"caladrius-tsdb","version":1,"series":2}` + "\n" + `{}`, "version 1 is not supported (this build reads and writes version 2 only): regenerate the file"},
		{`{"format":"caladrius-tsdb","version":2,"series":-1}` + "\n", "header: json: cannot unmarshal number -1"},
		{string(rawSnapshot(2, 1, rawSeries("m", nil, 1))), "series 2/2: unexpected EOF"},
		{string(rawSnapshot(1, 1, rawSeries("", nil, 1))), "series 1/1: empty metric"},
		{string(rawSnapshot(1, 0, []byte("\x01m\x00\x00"))), "series 1/1: no points"},
		{string(rawSnapshot(1, 1, rawSeries("m", []string{"b", "1", "a", "2"}, 1))), `label "a" out of order`},
		{string(rawSnapshot(1, 1, rawSeries("m", []string{"a", "1", "a", "2"}, 1))), `label "a" out of order`},
		{string(rawSnapshot(2, 2, two(rawSeries("n", nil, 1), rawSeries("m", nil, 1)))), "series 2/2: series m{} out of order"},
		{string(rawSnapshot(2, 2, two(rawSeries("m", nil, 1), rawSeries("m", nil, 1)))), "series 2/2: series m{} out of order"},
		{string(rawSnapshot(1, 2, rawSeries("m", nil, 1))), "holds 1 points, header declares 2"},
		{string(snapshotBytes(t, populated(t))) + "x", "1 trailing bytes after 3 series"},
	}
	for _, c := range cases {
		db, err := ReadSnapshot(strings.NewReader(c.src))
		if db != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("snapshot %q: db = %v, err = %v, want an error with %q", c.src, db, err, c.want)
		}
	}
}

// snapshotBytes is WriteSnapshot into memory.
func snapshotBytes(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawSnapshot hand-assembles a snapshot so tests can declare counts
// the writer never would.
func rawSnapshot(series, points uint64, body []byte) []byte {
	h := fmt.Sprintf(`{"format":"caladrius-tsdb","version":2,"retention_ns":0,"series":%d,"points":%d}`+"\n", series, points)
	return append([]byte(h), body...)
}

// rawSeries encodes one series record: labels are key, value, key,
// value… written in the order given; the points sit at t0 plus each
// offset in seconds, with their index as value.
func rawSeries(metric string, labels []string, offsets ...int) []byte {
	b := appendString(nil, metric)
	b = binary.AppendUvarint(b, uint64(len(labels)/2))
	for _, s := range labels {
		b = appendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(offsets)))
	var prev int64
	for _, o := range offsets {
		ns := t0.Add(time.Duration(o) * time.Second).UnixNano()
		b = binary.AppendVarint(b, ns-prev)
		prev = ns
	}
	for i := range offsets {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(i)))
	}
	return b
}

// hostileSnapshots declare far more than they carry. Reading one must
// fail, and without allocating for the declared size.
func hostileSnapshots() map[string][]byte {
	huge := binary.AppendUvarint(nil, 1<<62)
	return map[string][]byte{
		"2^40 series":        rawSnapshot(1<<40, 1, rawSeries("m", nil, 1)),
		"2^62 points":        rawSnapshot(1, 1<<62, append(append(appendString(nil, "m"), 0), huge...)),
		"2^62 header points": rawSnapshot(1, 1<<62, rawSeries("m", nil, 1)),
		"2^62-byte metric":   rawSnapshot(1, 1, huge),
		"2^62-byte label":    rawSnapshot(1, 1, append(append(appendString(nil, "m"), 1), huge...)),
		"2^62 labels":        rawSnapshot(1, 1, append(appendString(nil, "m"), huge...)),
	}
}

func TestSnapshotHostileLengths(t *testing.T) {
	for name, src := range hostileSnapshots() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := ReadSnapshot(bytes.NewReader(src))
		runtime.ReadMemStats(&after)
		if err == nil || db != nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input", name, grew, len(src))
		}
	}
}

// TestSnapshotNonFinite is the regression test for a shutdown snapshot
// lost to one ±Inf or NaN sample: JSON could not encode them.
func TestSnapshotNonFinite(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000abc) // a payload a canonical NaN would lose
	values := []float64{math.Inf(1), math.Inf(-1), nan, math.Copysign(0, -1), 1.5}
	db := New(0)
	for i, v := range values {
		db.Handle("m", nil).Append(minuteAt(i), v)
	}
	back, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, db)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Query("m", nil, minuteAt(0), minuteAt(len(values)))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got[0].Points {
		if math.Float64bits(p.V) != math.Float64bits(values[i]) {
			t.Errorf("point %d = %v (%#x), want %v (%#x)", i, p.V, math.Float64bits(p.V), values[i], math.Float64bits(values[i]))
		}
	}
}

// TestSnapshotOutOfOrderDeltas: a record whose timestamps go backwards
// loads as if its points had been appended one by one.
func TestSnapshotOutOfOrderDeltas(t *testing.T) {
	offsets := []int{5, 3, 9, 3, 0, 9, 7}
	for _, retention := range []time.Duration{0, 4 * time.Second} {
		src := rawSnapshot(1, uint64(len(offsets)), rawSeries("m", []string{"k", "v"}, offsets...))
		src = bytes.Replace(src, []byte(`"retention_ns":0`), []byte(fmt.Sprintf(`"retention_ns":%d`, retention)), 1)
		back, err := ReadSnapshot(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		want := New(retention)
		for i, o := range offsets {
			want.Handle("m", Labels{"k": "v"}).Append(t0.Add(time.Duration(o)*time.Second), float64(i))
		}
		if got := snapshotBytes(t, back); !bytes.Equal(got, snapshotBytes(t, want)) {
			t.Errorf("retention %s: loaded series differs from appended one", retention)
		}
	}
}

// TestSnapshotTruncated is the kill-mid-write test: a file cut short
// anywhere is an error that says so, never a panic or a partial DB.
func TestSnapshotTruncated(t *testing.T) {
	check := func(t *testing.T, db *DB, err error, cut int) {
		t.Helper()
		if db != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: db = %v, err = %v, want nil and io.ErrUnexpectedEOF", cut, db, err)
		}
	}
	// Every offset of a small snapshot, so every section boundary:
	// inside and after the header, each string, each count, each column.
	small := snapshotBytes(t, populated(t))
	for cut := 0; cut < len(small); cut++ {
		db, err := ReadSnapshot(bytes.NewReader(small[:cut]))
		check(t, db, err, cut)
		if cut > bytes.IndexByte(small, '\n') && !strings.Contains(err.Error(), "series ") {
			t.Fatalf("cut at %d: error %q does not name the series", cut, err)
		}
	}
	// 1,000 evenly spaced offsets of a saved file, through LoadFile.
	big := New(time.Hour)
	for s := 0; s < 40; s++ {
		h := big.Handle(fmt.Sprintf("metric-%d", s%7), Labels{"instance": fmt.Sprint(s)})
		for i := 0; i < 300; i++ {
			h.Append(t0.Add(time.Duration(i)*5*time.Second), float64(s*i))
		}
	}
	path := filepath.Join(t.TempDir(), "history.tsdb")
	if err := big.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		cut := i * len(whole) / 1000
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := LoadFile(path)
		check(t, db, err, cut)
	}
}

func FuzzReadSnapshot(f *testing.F) {
	f.Add(snapshotBytes(f, populated(f)))
	f.Add(snapshotBytes(f, New(time.Minute)))
	unlabelled := New(0)
	unlabelled.Handle("m", nil).Append(minuteAt(0), 1)
	f.Add(snapshotBytes(f, unlabelled))
	f.Add(rawSnapshot(1, 4, rawSeries("m", []string{"k", "v"}, 5, 3, 9, 3)))
	f.Add(snapshotBytes(f, lookalikeStore()))
	if old, err := os.ReadFile("testdata/escaped-labels.tsdb"); err == nil {
		f.Add(old)
	}
	for _, src := range hostileSnapshots() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		db, err := ReadSnapshot(bytes.NewReader(src))
		if err != nil {
			if db != nil {
				t.Fatal("error with a non-nil DB")
			}
			return
		}
		// Whatever loads is a well-formed store: non-empty sorted
		// series whose snapshot is a fixed point of read-then-write.
		for _, bySeries := range db.metrics {
			for key, sd := range bySeries {
				ss := sd.appendSamples(nil)
				if len(ss) == 0 {
					t.Fatalf("series %q loaded empty", key)
				}
				for i := 1; i < len(ss); i++ {
					if ss[i].ns < ss[i-1].ns {
						t.Fatalf("series %q unsorted at %d", key, i)
					}
				}
			}
		}
		once := snapshotBytes(t, db)
		again, err := ReadSnapshot(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("own snapshot rejected: %v", err)
		}
		if !bytes.Equal(snapshotBytes(t, again), once) {
			t.Fatal("snapshot is not a fixed point of read-then-write")
		}
	})
}

func TestSaveLoadFile(t *testing.T) {
	db := populated(t)
	path := filepath.Join(t.TempDir(), "metrics.tsdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalPoints() != db.TotalPoints() {
		t.Errorf("points = %d", back.TotalPoints())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Half the stores trim as they fill; several metrics each.
		db := New(time.Duration(r.Intn(2)) * 2000 * time.Second)
		metrics := []string{"a", "b", "metric with spaces", "ünïcode"}
		for i := 0; i < 100; i++ {
			labels := Labels{}
			if r.Intn(2) == 0 {
				labels["instance"] = string(rune('0' + r.Intn(5)))
			}
			if r.Intn(3) == 0 {
				labels["weird key"] = `va"lue`
			}
			db.Handle(metrics[r.Intn(len(metrics))], labels).Append(t0.Add(time.Duration(r.Intn(10000))*time.Second), r.NormFloat64()*1e6)
		}
		x := snapshotBytes(t, db)
		back, err := ReadSnapshot(bytes.NewReader(x))
		if err != nil {
			return false
		}
		if back.TotalPoints() != db.TotalPoints() || !bytes.Equal(snapshotBytes(t, back), x) {
			return false
		}
		for _, m := range db.Metrics() {
			a, err1 := db.Query(m, nil, t0, t0.Add(100000*time.Second))
			b, err2 := back.Query(m, nil, t0, t0.Add(100000*time.Second))
			if err1 != nil || err2 != nil || !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
