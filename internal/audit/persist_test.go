package audit

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/metrics"
)

// snapshotBytes is a valid snapshot of three records — one graded and
// resolved, one counterfactual and resolved, one pending — plus a
// calibration mark.
func snapshotBytes(tb testing.TB) []byte {
	tb.Helper()
	led := testLedger(tb, Options{
		Provider: &stubProvider{windows: map[string][]metrics.Window{"counter": sinkWindows(audT0, 5, 100)}},
		Now:      func() time.Time { return audT0 },
	})
	led.Record(predictRecord(110))
	cf := predictRecord(500)
	cf.Counterfactual = true
	led.Record(cf)
	if n := led.ResolveOnce(audT0); n != 2 {
		tb.Fatalf("ResolveOnce = %d, want 2", n)
	}
	led.Record(predictRecord(120))
	led.NoteCalibration("word-count", audT0)
	var buf bytes.Buffer
	if err := led.WriteSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// occupiedLedger holds one record of its own, so a failed load that
// touched the ledger shows.
func occupiedLedger(tb testing.TB) (*Ledger, []Record) {
	tb.Helper()
	led := testLedger(tb, Options{Now: func() time.Time { return audT0 }})
	led.Record(predictRecord(77))
	return led, led.List(Filter{})
}

// TestSnapshotTruncated is the kill-mid-write test the tsdb loader
// already has: a snapshot cut short anywhere — inside the header, inside
// a record, on a line boundary, one byte before the end — is an error,
// never a panic and never a shorter ledger.
func TestSnapshotTruncated(t *testing.T) {
	whole := snapshotBytes(t)
	if n := bytes.Count(whole, []byte("\n")); n != 4 {
		t.Fatalf("snapshot has %d lines, want a header and 3 records", n)
	}
	led, before := occupiedLedger(t)
	for cut := 0; cut < len(whole); cut++ {
		if err := led.ReadSnapshot(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("cut at %d of %d: loaded %d records from a truncated snapshot", cut, len(whole), led.Len())
		}
		if after := led.List(Filter{}); !reflect.DeepEqual(after, before) {
			t.Fatalf("cut at %d: a failed load left the ledger holding %+v", cut, after)
		}
	}
	if err := led.ReadSnapshot(bytes.NewReader(whole)); err != nil || led.Len() != 3 {
		t.Fatalf("whole snapshot: err = %v, Len = %d, want nil and 3", err, led.Len())
	}
}

// hostileHeaders are snapshots whose header count is not the number of
// records that follow — the first two crashed or over-allocated the
// boot — or whose ids are not a ring's consecutive ones.
var hostileHeaders = map[string]string{
	`{"format":"caladrius-audit","version":1,"records":2}` + "\n" + `{"id":1}` + "\n" + `{"id":3}` + "\n":             "record 2: id 3 does not follow",
	`{"format":"caladrius-audit","version":1,"records":1}` + "\n" + `{"id":0}` + "\n":                                 "record 1: id 0 does not follow",
	`{"format":"caladrius-audit","version":1,"records":-1}` + "\n":                                                    "header says -1 records",
	`{"format":"caladrius-audit","version":1,"records":1e12}` + "\n":                                                  "snapshot header",
	`{"format":"caladrius-audit","version":1,"records":1000000000000}` + "\n":                                         "header says 1000000000000 records, read 0",
	`{"format":"caladrius-audit","version":1,"records":2}` + "\n" + `{"id":1}` + "\n":                                 "header says 2 records, read 1",
	`{"format":"caladrius-audit","version":1,"records":1}` + "\n" + `{"id":1}` + "\n" + `{"id":2}` + "\n":             "header says 1 records, read 2",
	`{"format":"caladrius-audit","version":1,"records":1}` + "\n" + `{"id":1}`:                                        "unexpected EOF",
	`{"format":"caladrius-audit","version":1,"records":2}` + "\n" + `{"id":1}` + "\n" + `{"id":` + "\n" + `2}` + "\n": "snapshot record 2",
}

func TestSnapshotHeaderCount(t *testing.T) {
	for src, want := range hostileHeaders {
		led, before := occupiedLedger(t)
		err := led.ReadSnapshot(strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadSnapshot(%q): err = %v, want one containing %q", src, err, want)
		}
		if after := led.List(Filter{}); !reflect.DeepEqual(after, before) {
			t.Errorf("ReadSnapshot(%q) left the ledger holding %+v", src, after)
		}
	}
}

// legacyCostSnapshot is a snapshot written while run costs still
// carried a simulator-tick delta: its record's cost has a "sim_ticks"
// key that RunCost no longer has.
const legacyCostSnapshot = `{"format":"caladrius-audit","version":1,"records":1}` + "\n" +
	`{"id":7,"created_at":"2026-08-08T12:00:00Z","topology":"word-count","model":"predict","tenant":"team-a",` +
	`"cost":{"wall_ns":1500000,"cpu_ns":1200000,"alloc_bytes":40960,"sim_ticks":0},` +
	`"source_rate_tpm":20000000,"counterfactual":false,"predicted":{"sink_tpm":110,"output_tpm":110,` +
	`"saturation_source_tpm":0,"backpressure_risk":"low","total_cpu_cores":2,"sink":"counter"},"resolved":false}` + "\n"

// TestSnapshotLoadsLegacyCost: a ledger saved before the tick dimension
// went still loads, and its costs survive.
func TestSnapshotLoadsLegacyCost(t *testing.T) {
	led := testLedger(t, Options{Now: func() time.Time { return audT0 }})
	if err := led.ReadSnapshot(strings.NewReader(legacyCostSnapshot)); err != nil {
		t.Fatal(err)
	}
	rec, ok := led.Get(7)
	if !ok {
		t.Fatalf("record 7 missing after load; ledger holds %+v", led.List(Filter{}))
	}
	want := core.RunCost{WallNanos: 1500000, CPUNanos: 1200000, AllocBytes: 40960}
	if rec.Cost == nil || *rec.Cost != want {
		t.Errorf("cost = %+v, want %+v", rec.Cost, want)
	}
	if rec.Tenant != "team-a" || rec.Predicted.SinkTPM != 110 || rec.Predicted.Risk != "low" {
		t.Errorf("record = %+v", rec)
	}
}

// FuzzAuditReadSnapshot: whatever the file says, the loader returns —
// with the ledger untouched on an error, and within its capacity, with
// ids still unique, on success. What a loaded ledger writes, it reads
// back to write the same bytes again: read→write→read→write is a fixed
// point, whatever the packed ring entry drops or derives.
func FuzzAuditReadSnapshot(f *testing.F) {
	f.Add(snapshotBytes(f))
	f.Add([]byte(legacyCostSnapshot))
	for src := range hostileHeaders {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		led, before := occupiedLedger(t)
		if err := led.ReadSnapshot(bytes.NewReader(src)); err != nil {
			if after := led.List(Filter{}); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed load (%v) left the ledger holding %+v", err, after)
			}
			return
		}
		if led.Len() > 8 {
			t.Fatalf("loaded %d records into a ledger of capacity 8", led.Len())
		}
		var first, second bytes.Buffer
		if err := led.WriteSnapshot(&first); err != nil {
			t.Fatalf("WriteSnapshot after a load: %v", err)
		}
		again := testLedger(t, Options{Now: func() time.Time { return audT0 }})
		if err := again.ReadSnapshot(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("ReadSnapshot of what a loaded ledger wrote: %v\n%s", err, first.Bytes())
		}
		if err := again.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("read→write→read→write is not a fixed point:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
		id := led.Record(predictRecord(1))
		for _, rec := range led.List(Filter{}) {
			if rec.ID > id {
				t.Fatalf("record %d outnumbers the id %d issued after the load", rec.ID, id)
			}
		}
	})
}
