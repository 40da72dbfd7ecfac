package audit

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"caladrius/internal/core"
)

// recordShapes is one Record of every shape the ledger holds, ids 1…n:
// with and without parallelism and cost, counterfactual, degraded and
// cached, pending, and resolved with and without errors — one with an
// observation window other than the resolver's. Every value survives
// JSON as it is, so the shapes can also go through a snapshot file.
func recordShapes() []Record {
	sp := 1.9e7
	cal := []core.ComponentCalibration{
		{Component: "counter", Parallelism: 4, Alpha: 0.001, SPTPM: &sp, CPUPsi: 1e-7},
		{Component: "splitter", Parallelism: 3, Alpha: 7.6},
	}
	at := audT0.Add(time.Minute)
	obs := &Observed{Start: audT0.Add(-observeWindow), End: audT0, Windows: 5, SinkTPM: 1e8, BackpressureMsPerWindow: 12e3, Backpressure: true, TotalCPUCores: 2.5}
	shapes := []Record{
		{Topology: "word-count", Model: "predict", Predicted: Predicted{SinkTPM: 1, Risk: "low", Sink: "counter"}},
		{Topology: "word-count", Model: "predict", TraceID: "t-7", Tenant: "team-a", SourceRateTPM: 3e7,
			Parallelism: map[string]int{"splitter": 4, "counter": 2, "spout": 8},
			Cost:        &core.RunCost{WallNanos: 1500, CPUNanos: 1200, AllocBytes: 4096},
			Calibration: cal,
			Predicted:   Predicted{SinkTPM: 2e8, OutputTPM: 2e8, SaturationSourceTPM: 4e7, Bottleneck: "splitter", Risk: "high", TotalCPUCores: 3, Sink: "counter"}},
		{Topology: "other", Model: "plan", Counterfactual: true, Degraded: true, CachedCalibration: true,
			Parallelism: map[string]int{"splitter": 4, "counter": 2, "spout": 8}, Calibration: cal},
		{Topology: "word-count", Model: "predict", Resolved: true, ResolvedAt: &at, Observed: obs,
			Errors: &Errors{SinkSigned: -0.25, SinkAPE: 0.25, CPUSigned: 0.1, RiskOutcome: RiskTP}},
		{Topology: "word-count", Model: "plan", Counterfactual: true, Resolved: true, ResolvedAt: &at, Observed: obs},
		{Topology: "word-count", Model: "predict", Resolved: true, ResolvedAt: &at,
			Observed: &Observed{Start: audT0.Add(-time.Hour), End: audT0.Add(time.Second), Windows: 60},
			Errors:   &Errors{SinkAPE: 7, SinkSigned: 7, RiskOutcome: RiskFN}},
	}
	for i := range shapes {
		shapes[i].ID = int64(i + 1)
		shapes[i].CreatedAt = audT0
	}
	return shapes
}

// snapshotOf renders records the way WriteSnapshot writes them.
func snapshotOf(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(snapshotHeader{Format: snapshotFormat, Version: snapshotVersion, Records: len(recs)}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestEntryRoundTrip: every Record shape comes back from the ring as it
// went in — through pack and unpack, Get, List, and a WriteSnapshot →
// ReadSnapshot cycle whose file is byte for byte the Records' JSON.
func TestEntryRoundTrip(t *testing.T) {
	shapes := recordShapes()
	// A live record's clock reading carries a monotonic part and the
	// resolver's window is derived from it; both survive too.
	now := time.Now()
	live := shapes[3]
	live.CreatedAt = now
	live.Observed = &Observed{Start: now.Add(-observeWindow), End: now, Windows: 5}
	in := newInterned()
	for i, rec := range append([]Record{live}, shapes...) {
		var e entry
		e.pack(&rec, in)
		if got := e.unpack(&recordArrays{}); !reflect.DeepEqual(got, rec) {
			t.Errorf("shape %d: unpack = %+v, want %+v", i, got, rec)
		}
	}

	file := snapshotOf(t, shapes)
	led := testLedger(t, Options{Now: func() time.Time { return audT0 }})
	if err := led.ReadSnapshot(bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	for _, want := range shapes {
		if got, ok := led.Get(want.ID); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("Get(%d) = %+v, %v, want %+v", want.ID, got, ok, want)
		}
	}
	list := led.List(Filter{})
	for i, got := range list {
		if want := shapes[len(shapes)-1-i]; !reflect.DeepEqual(got, want) {
			t.Errorf("List()[%d] = %+v, want %+v", i, got, want)
		}
	}
	var buf bytes.Buffer
	if err := led.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), file) {
		t.Errorf("WriteSnapshot wrote\n%s\nwant the records' own JSON\n%s", buf.Bytes(), file)
	}

	// Recorded live, a record keeps what the caller filled in and gains
	// its id and creation time.
	fresh := testLedger(t, Options{Now: func() time.Time { return audT0 }})
	for _, shape := range shapes[:3] {
		want := shape
		want.ID, want.CreatedAt = 0, time.Time{}
		id := fresh.Record(want)
		want.ID, want.CreatedAt = id, audT0
		if got, _ := fresh.Get(id); !reflect.DeepEqual(got, want) {
			t.Errorf("recorded %d: Get = %+v, want %+v", id, got, want)
		}
	}
}

// TestListAllocations pins what List allocates for a page over a full
// ring: the result slice, one array for each pointer field its records
// fill, and each record's parallelism map — none of it per record
// otherwise.
func TestListAllocations(t *testing.T) {
	shapes := recordShapes()
	recs := make([]Record, capacity)
	for i := range recs {
		recs[i] = shapes[i%len(shapes)]
		recs[i].ID = int64(i + 1)
	}
	led := testLedger(t, Options{Now: func() time.Time { return audT0 }})
	if err := led.ReadSnapshot(bytes.NewReader(snapshotOf(t, recs))); err != nil {
		t.Fatal(err)
	}
	page := led.List(Filter{Limit: 50})
	var maps int
	var par map[string]int
	var costs, times, observed, errs bool
	for _, rec := range page {
		if rec.Parallelism != nil {
			maps++
			par = rec.Parallelism
		}
		costs = costs || rec.Cost != nil
		times = times || rec.ResolvedAt != nil
		observed = observed || rec.Observed != nil
		errs = errs || rec.Errors != nil
	}
	if len(page) != 50 || !costs || !times || !observed || !errs || maps == 0 {
		t.Fatalf("the page of %d records does not fill every pointer field", len(page))
	}
	// What one parallelism map costs: its header and its slots.
	perMap := testing.AllocsPerRun(20, func() {
		m := make(map[string]int, len(par))
		for c, n := range par {
			m[c] = n
		}
		mapSink = m
	})
	want := 1 + 4 + float64(maps)*perMap
	if got := testing.AllocsPerRun(20, func() { led.List(Filter{Limit: 50}) }); got != want {
		t.Errorf("List(Limit: 50) allocates %v times, want %v: the page, 4 field arrays and %d parallelism maps of %v", got, want, maps, perMap)
	}
}

var mapSink map[string]int
