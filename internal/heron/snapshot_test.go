package heron

import (
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
)

// snapshotPath is a `heronsim -minutes 1 -splitter 2 -counter 6 -rate
// 45e6 -save` snapshot: word-count at spout 8, splitter 2, counter 6
// over the default two containers.
var snapshotPath = filepath.Join("testdata", "wordcount-2-6.snapshot")

// snapshotLabels reads the label sets of a snapshot's execute-count
// series, the labels wordCountPlan gets from LoadWordCountSnapshot.
func snapshotLabels(tb testing.TB) []tsdb.Labels {
	tb.Helper()
	db, err := tsdb.LoadFile(snapshotPath)
	if err != nil {
		tb.Fatal(err)
	}
	series, err := db.Query(MetricExecuteCount, nil, time.Time{}, DefaultStart.Add(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]tsdb.Labels, len(series))
	for i, s := range series {
		out[i] = s.Labels
	}
	return out
}

// plan runs wordCountPlan over series with the given label sets.
func plan(labels []tsdb.Labels) (*topology.Topology, *topology.PackingPlan, error) {
	series := make([]tsdb.Series, len(labels))
	for i, l := range labels {
		series[i] = tsdb.Series{Metric: MetricExecuteCount, Labels: l}
	}
	return wordCountPlan(series)
}

// labelKeys are the labels a fuzz input line gives, in order.
var labelKeys = []string{"topology", "component", "instance", "container"}

// encodeLabels writes one line per label set: its labelKeys values,
// space-separated.
func encodeLabels(series []tsdb.Labels) string {
	lines := make([]string, len(series))
	for i, l := range series {
		vals := make([]string, len(labelKeys))
		for k, key := range labelKeys {
			vals[k] = l[key]
		}
		lines[i] = strings.Join(vals, " ")
	}
	return strings.Join(lines, "\n")
}

// decodeLabels reads encodeLabels' lines back; a short line lacks its
// trailing labels.
func decodeLabels(src string) []tsdb.Labels {
	var out []tsdb.Labels
	for _, line := range strings.Split(src, "\n") {
		l := tsdb.Labels{}
		for k, v := range strings.SplitN(line, " ", len(labelKeys)) {
			l[labelKeys[k]] = v
		}
		out = append(out, l)
	}
	return out
}

// find returns the label set of one instance series.
func find(series []tsdb.Labels, component, instance string) tsdb.Labels {
	for _, l := range series {
		if l["component"] == component && l["instance"] == instance {
			return l
		}
	}
	panic("no series for " + component + "[" + instance + "]")
}

// refusals are the snapshot label sets wordCountPlan must refuse: each
// case spoils a clean set and names what the error has to quote.
var refusals = []struct {
	name  string
	spoil func([]tsdb.Labels) []tsdb.Labels
	quote string
}{
	{"other topology", func(s []tsdb.Labels) []tsdb.Labels { s[0]["topology"] = "other"; return s }, `"other"`},
	{"unknown component", func(s []tsdb.Labels) []tsdb.Labels {
		find(s, "counter", "5")["component"] = "mapper"
		return s
	}, `"mapper"`},
	{"non-numeric instance", func(s []tsdb.Labels) []tsdb.Labels { find(s, "splitter", "1")["instance"] = "one"; return s }, `"one"`},
	{"padded instance", func(s []tsdb.Labels) []tsdb.Labels { find(s, "splitter", "1")["instance"] = "01"; return s }, `"01"`},
	{"duplicate instance", func(s []tsdb.Labels) []tsdb.Labels { find(s, "splitter", "1")["instance"] = "0"; return s }, `splitter instance "0"`},
	{"gapped instances", func(s []tsdb.Labels) []tsdb.Labels { find(s, "counter", "2")["instance"] = "6"; return s }, `"6"`},
	{"huge index", func(s []tsdb.Labels) []tsdb.Labels {
		find(s, "counter", "5")["instance"] = "999999999"
		return s
	}, `"999999999"`},
	{"negative index", func(s []tsdb.Labels) []tsdb.Labels { find(s, "spout", "7")["instance"] = "-1"; return s }, `"-1"`},
	{"negative container", func(s []tsdb.Labels) []tsdb.Labels { find(s, "spout", "0")["container"] = "-1"; return s }, `"-1"`},
	{"out-of-range container", func(s []tsdb.Labels) []tsdb.Labels { find(s, "spout", "0")["container"] = "9"; return s }, `"9"`},
	{"not round-robin", func(s []tsdb.Labels) []tsdb.Labels {
		a, b := find(s, "splitter", "0"), find(s, "splitter", "1")
		a["container"], b["container"] = b["container"], a["container"]
		return s
	}, "round-robin"},
	{"missing component", func(s []tsdb.Labels) []tsdb.Labels {
		var kept []tsdb.Labels
		for _, l := range s {
			if l["component"] != "counter" {
				kept = append(kept, l)
			}
		}
		return kept
	}, `"counter" parallelism 0`},
}

// TestLoadWordCountSnapshotReadsPlan: a snapshot is served at the
// parallelisms and packing it was saved with, whatever the daemon's
// demo flags say.
func TestLoadWordCountSnapshotReadsPlan(t *testing.T) {
	sub, err := LoadWordCountSnapshot(snapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	top, err := WordCountTopology(8, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := topology.RoundRobinPack(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub.Topology, top) || !reflect.DeepEqual(sub.Plan, pack) {
		t.Errorf("loaded %v packed %+v, want %v packed %+v", sub.Topology.Components(), sub.Plan.Containers, top.Components(), pack.Containers)
	}
	if want := DefaultStart.Add(time.Minute); !sub.AsOf.Equal(want) {
		t.Errorf("AsOf = %s, want %s", sub.AsOf, want)
	}
}

// TestWordCountPlanRefuses: a snapshot whose labels are not word-count
// packed round-robin, with instances 0..p−1, is refused with an error
// that names what was found.
func TestWordCountPlanRefuses(t *testing.T) {
	for _, c := range refusals {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := plan(c.spoil(snapshotLabels(t)))
			if err == nil || !strings.Contains(err.Error(), c.quote) {
				t.Errorf("error %v, want one quoting %s", err, c.quote)
			}
		})
	}
}

// FuzzWordCountPlan: whatever label sets a snapshot holds, the
// label-to-plan step returns an error or a plan that packs exactly the
// labelled instances where their labels say, never a panic.
func FuzzWordCountPlan(f *testing.F) {
	f.Add(encodeLabels(snapshotLabels(f)))
	for _, c := range refusals {
		f.Add(encodeLabels(c.spoil(snapshotLabels(f))))
	}
	f.Fuzz(func(t *testing.T, src string) {
		series := decodeLabels(src)
		top, pack, err := plan(series)
		if err != nil {
			return
		}
		if err := pack.Validate(top); err != nil {
			t.Fatal(err)
		}
		seen := map[topology.InstanceID]bool{}
		for _, l := range series {
			if l["component"] == TopologyComponent {
				continue
			}
			i, err := strconv.Atoi(l["instance"])
			id := topology.InstanceID{Component: l["component"], Index: i}
			if err != nil || strconv.Itoa(i) != l["instance"] || seen[id] {
				t.Fatalf("accepted %s instance %q, a second time or not as its index", id.Component, l["instance"])
			}
			seen[id] = true
			if c, ok := pack.ContainerOf(id); !ok || strconv.Itoa(c) != l["container"] {
				t.Fatalf("%s labelled container %q, packed in %d (%v)", id, l["container"], c, ok)
			}
		}
		if len(seen) != pack.InstanceCount() {
			t.Fatalf("%d instance series, %d instances packed", len(seen), pack.InstanceCount())
		}
	})
}
