//go:build !race

// The race detector allocates shadow memory beside every object, so a
// resident-bytes budget holds only in a normal build.

package audit

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/instrument"
	"caladrius/internal/metrics"
	"caladrius/internal/tsdb"
)

// residentBudget is the heap a full, resolved ledger may hold per
// record: the ring entry (its size is pinned below), the trace id
// beside it, and the resolver's kept batch buffers and APE points
// spread over the ring. Measured 406–415 B (376–385 B before the pass) on
// go1.24, linux/amd64; a ring of Records with their pointers and maps
// held 725 B (593 B before the pass that resolved them).
const residentBudget = 450

// apiRecord is the i-th record shaped the way the API records a run:
// the topology sliced out of a freshly read request line, a fresh
// decoded parallelism map on four runs of five, a fresh trace id and
// tenant, and a cost behind a pointer.
func apiRecord(i int) Record {
	line := fmt.Sprintf("POST /api/v1/model/topology/%s/performance?sync=true&run=%d HTTP/1.1", "word-count", i)
	topo, _, _ := strings.Cut(strings.TrimPrefix(line, "POST /api/v1/model/topology/"), "/")
	rec := predictRecord(2e8 + float64(i))
	rec.Topology = topo
	rec.CreatedAt = audT0
	rec.TraceID = "t-" + strconv.Itoa(i)
	rec.Tenant = fmt.Sprintf("tenant-%d", i%4)
	rec.Cost = &core.RunCost{WallNanos: int64(i), CPUNanos: int64(i), AllocBytes: uint64(i)}
	rec.Calibration = wordCountCalibration
	if i%5 != 0 {
		rec.Parallelism = map[string]int{"splitter": 3 + i%4, "counter": 4}
	}
	return rec
}

// TestLedgerResidentBytesPerRecord fills every slot of the ring with
// API-shaped records, resolves them in one pass and holds the heap the
// ledger grew by, after a GC, to residentBudget a record.
func TestLedgerResidentBytesPerRecord(t *testing.T) {
	if size := reflect.TypeOf(entry{}).Size(); size != 368 {
		t.Fatalf("a ring entry is %d bytes, want 368", size)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perRecord := func(before, after uint64) float64 { return float64(int64(after-before)) / capacity }
	prov := &stubProvider{windows: map[string][]metrics.Window{"counter": sinkWindows(audT0, 5, 100)}}
	db, reg := tsdb.New(0), instrument.NewRegistry()

	before := heap()
	led := testLedger(t, Options{Provider: prov, History: db, Registry: reg, Now: func() time.Time { return audT0 }})
	for i := 0; i < capacity; i++ {
		led.Record(apiRecord(i))
	}
	recorded := perRecord(before, heap())
	if n := led.ResolveOnce(audT0); n != capacity {
		t.Fatalf("ResolveOnce = %d, want the full ring %d", n, capacity)
	}
	resolved := perRecord(before, heap())
	runtime.KeepAlive(led)

	t.Logf("ledger resident bytes/record: recorded %.0f, resolved %.0f (budget %d)", recorded, resolved, residentBudget)
	if resolved > residentBudget {
		t.Errorf("a full resolved ledger holds %.0f bytes a record, budget %d", resolved, residentBudget)
	}
}
