package tsdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// lookalikes are label sets whose plain joins (name=value pairs joined
// by ',') coincide in pairs, so a key without escapes would make each
// pair one series.
var lookalikes = []Labels{
	{"a": "1,b=2"}, {"a": "1", "b": "2"}, // "a=1,b=2"
	{"a=1": "x"}, {"a": "1=x"}, // "a=1=x"
	{"a": `x\,b=y`}, {"a": `x\`, "b": "y"}, // `a=x\,b=y`
}

func lookalikeStore() *DB {
	db := New(0)
	for i, l := range lookalikes {
		db.Handle("m", l).Append(minuteAt(i), float64(i))
	}
	return db
}

// TestLookalikeLabelsAreDistinctSeries: every label set is its own
// series and reads back its own labels, from the store and from its
// snapshot.
func TestLookalikeLabelsAreDistinctSeries(t *testing.T) {
	db := lookalikeStore()
	path := filepath.Join(t.TempDir(), "history.tsdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"appended": db, "loaded": loaded} {
		if n := db.SeriesCount("m"); n != len(lookalikes) {
			t.Fatalf("%s: %d series, want %d", name, n, len(lookalikes))
		}
		for i, l := range lookalikes {
			got, err := db.Query("m", l, minuteAt(0), minuteAt(len(lookalikes)))
			if err != nil {
				t.Fatalf("%s: Query(%v): %v", name, l, err)
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0].Labels, l) || len(got[0].Points) != 1 || got[0].Points[0].V != float64(i) {
				t.Errorf("%s: Query(%v) = %v, want the one series of that set holding %d", name, l, got, i)
			}
			if p, err := db.Latest("m", l); err != nil || p.V != float64(i) {
				t.Errorf("%s: Latest(%v) = %v, %v; want %d", name, l, p, err, i)
			}
		}
		all, err := db.Query("m", nil, minuteAt(0), minuteAt(len(lookalikes)))
		if err != nil {
			t.Fatal(err)
		}
		var seen []string
		for _, s := range all {
			seen = append(seen, fmt.Sprint(s.Labels))
		}
		for _, l := range lookalikes {
			if !slices.Contains(seen, fmt.Sprint(l)) {
				t.Errorf("%s: Query(nil) lacks %v: %v", name, l, seen)
			}
		}
		for key, want := range map[string][]string{
			"a":   {"1", "1,b=2", "1=x", `x\`, `x\,b=y`},
			"b":   {"2", "y"},
			"a=1": {"x"},
		} {
			if got := db.LabelValues("m", key); !slices.Equal(got, want) {
				t.Errorf("%s: LabelValues(m, %q) = %q, want %q", name, key, got, want)
			}
		}
	}
	if !bytes.Equal(snapshotBytes(t, loaded), snapshotBytes(t, db)) {
		t.Error("the loaded store's snapshot differs from the saved one")
	}
}

// TestSelectorWalksKeyPairs: a selector matches a series when each of
// its pairs is one of the key's, whatever the escapes.
func TestSelectorWalksKeyPairs(t *testing.T) {
	cases := []struct {
		labels, sel Labels
		want        bool
	}{
		{Labels{"a": "1", "b": "2"}, nil, true},
		{Labels{"a": "1", "b": "2"}, Labels{"b": "2"}, true},
		{Labels{"a": "1", "b": "2"}, Labels{"a": "1", "b": "2"}, true},
		{Labels{"a": "1", "b": "2"}, Labels{"a": "1", "b": "3"}, false},
		{Labels{"a": "1", "b": "2"}, Labels{"a": "1", "c": "2"}, false},
		{Labels{"a": "1", "b": "2"}, Labels{"0": "1"}, false},
		{Labels{"a": "1", "b": "2"}, Labels{"a": "1,b=2"}, false},
		{Labels{"a": "1,b=2"}, Labels{"a": "1"}, false},
		{Labels{"a": "1,b=2"}, Labels{"b": "2"}, false},
		{Labels{"a": "1,b=2"}, Labels{"a": "1,b=2"}, true},
		{Labels{"a=1": "x"}, Labels{"a": "1=x"}, false},
		{Labels{"a,": "1", "a-": "2"}, Labels{"a-": "2"}, true}, // "a," < "a-", though `a\,` > "a-"
		{Labels{"a,": "1", "a-": "2"}, Labels{"a,": "1", "a-": "2"}, true},
		{Labels{"a,": "1", "a-": "2"}, Labels{"a-": "1"}, false},
		{Labels{`\`: `\`, "z": "1"}, Labels{`\`: `\`}, true},
		{Labels{`\`: `\`, "z": "1"}, Labels{"z": "1"}, true},
		{Labels{"": "", "z": "1"}, Labels{"": ""}, true},
		{Labels{"z": "1"}, Labels{"": ""}, true}, // a missing name reads as ""
		{Labels{"a": "1"}, Labels{"a": "1", "b": ""}, true},
		{Labels{"a": "1", "b": "x"}, Labels{"b": ""}, false},
		{Labels{"a": "1", "c": "x"}, Labels{"b": "", "c": "x"}, true},
	}
	for _, c := range cases {
		if got := newSelector(c.sel, nil).matches(c.labels.canonical()); got != c.want || got != c.labels.Matches(c.sel) {
			t.Errorf("selector %v on %v = %v, want %v", c.sel, c.labels, got, c.want)
		}
		if got := keyLabels(c.labels.canonical()); !reflect.DeepEqual(got, c.labels) {
			t.Errorf("labels of %v's key = %v", c.labels, got)
		}
	}
	if key := (Labels{"topology": "wc", "component": "splitter"}).canonical(); key != "component=splitter,topology=wc" {
		t.Errorf("a label set without escaped bytes keys as %q, want its plain join", key)
	}
}

// TestSnapshotWrittenByPlainJoinKeys loads a file written when a
// series' key was the plain join of its labels: some of its label
// values hold ',', '=' and a backslash, and its series are in plain
// join order, which is not the order of their escaped keys. It must
// load and write back byte for byte.
func TestSnapshotWrittenByPlainJoinKeys(t *testing.T) {
	const path = "testdata/escaped-labels.tsdb"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, db); !bytes.Equal(got, want) {
		t.Errorf("written back as %d bytes that differ from the file's %d", len(got), len(want))
	}
	const metric = "caladrius_usage_runs_total"
	if got, want := db.LabelValues(metric, "topology"), []string{"a", "a,b", "a-b", "word-count"}; !slices.Equal(got, want) {
		t.Errorf("topologies = %q, want %q", got, want)
	}
	if got, want := db.LabelValues(metric, "tenant"), []string{"anonymous", `c:\tmp`, "team=x", "team>x"}; !slices.Equal(got, want) {
		t.Errorf("tenants = %q, want %q", got, want)
	}
	got, err := db.Query(metric, Labels{"topology": "a,b"}, minuteAt(-1e6), minuteAt(1e6))
	if err != nil || len(got) != 1 || got[0].Labels["tenant"] != "anonymous" || len(got[0].Points) != 4 {
		t.Errorf(`Query(topology="a,b") = %v, %v`, got, err)
	}
}

// TestSnapshotOrderIsPlainJoinThenKey: the decoder takes series in
// plain join order, ties broken by key, and refuses any other order and
// any repeat.
func TestSnapshotOrderIsPlainJoinThenKey(t *testing.T) {
	series := func(labels ...string) []byte { return rawSeries("m", labels, 1) }
	plain, escaped := series("a", "1", "b", "2"), series("a", "1,b=2") // one plain join
	comma, dash := series("t", "a,b"), series("t", "a-b")              // "a,b" < "a-b", `a\,b` > "a-b"
	cases := []struct {
		name    string
		records [][]byte
		ok      bool
	}{
		{"tie in key order", [][]byte{plain, escaped}, true},
		{"tie out of key order", [][]byte{escaped, plain}, false},
		{"repeated escaped series", [][]byte{escaped, escaped}, false},
		{"plain join order", [][]byte{comma, dash}, true},
		{"key order", [][]byte{dash, comma}, false},
	}
	for _, c := range cases {
		src := rawSnapshot(uint64(len(c.records)), uint64(len(c.records)), bytes.Join(c.records, nil))
		db, err := ReadSnapshot(bytes.NewReader(src))
		if c.ok && (err != nil || !bytes.Equal(snapshotBytes(t, db), src)) {
			t.Errorf("%s: %v, or not written back as read", c.name, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "out of order")) {
			t.Errorf("%s: err = %v, want out of order", c.name, err)
		}
	}
}

// FuzzKeyRoundTrip: a label set's key parses back to the set, and a
// selector matches the key exactly when the label map matches it.
func FuzzKeyRoundTrip(f *testing.F) {
	f.Add("a", "1,b=2", "b", "2", "a", "1")
	f.Add("a=1", "x", "a", `x\`, "a", "1=x")
	f.Add(`\`, ",", "", "", "", "")
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2, sk, sv string) {
		l := Labels{k1: v1, k2: v2}
		key := l.canonical()
		if got := keyLabels(key); !reflect.DeepEqual(got, l) {
			t.Fatalf("labels %q keyed as %q parse back as %q", l, key, got)
		}
		for _, sel := range []Labels{{sk: sv}, {k1: v1, sk: sv}, {k2: v2, sk: sv}, {k1: sv}} {
			if got, want := newSelector(sel, nil).matches(key), l.Matches(sel); got != want {
				t.Fatalf("selector %q on %q = %v, the label map says %v", sel, l, got, want)
			}
		}
	})
}
