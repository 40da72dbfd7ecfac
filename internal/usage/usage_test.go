package usage

import (
	"fmt"
	"testing"
	"time"

	"caladrius/internal/instrument"
)

var usageT0 = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

func fixedNow(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

func find(snap []PrincipalUsage, tenant, topo string) (PrincipalUsage, bool) {
	for _, p := range snap {
		if p.Tenant == tenant && p.Topology == topo {
			return p, true
		}
	}
	return PrincipalUsage{}, false
}

func TestAccountantRecordAndSnapshot(t *testing.T) {
	a := New(Options{Capacity: 4, Window: 8 * time.Minute, Now: fixedNow(usageT0)})
	a.Begin("acme", "wordcount")
	a.Finish("acme", "wordcount", 200, 30*time.Millisecond)
	a.Begin("acme", "wordcount")
	a.Finish("acme", "wordcount", 503, 70*time.Millisecond)
	a.RecordRun("acme", "wordcount", 50*time.Millisecond, 40*time.Millisecond, 1<<20, 0)

	snap := a.Snapshot()
	p, ok := find(snap, "acme", "wordcount")
	if !ok {
		t.Fatal("principal missing from snapshot")
	}
	if p.Totals.Requests != 2 || p.Totals.Errors != 1 {
		t.Errorf("requests/errors = %d/%d, want 2/1", p.Totals.Requests, p.Totals.Errors)
	}
	if p.Totals.LatencyNanos != uint64(100*time.Millisecond) {
		t.Errorf("latency = %d", p.Totals.LatencyNanos)
	}
	if p.Totals.Runs != 1 || p.Totals.CPUNanos != uint64(40*time.Millisecond) ||
		p.Totals.AllocBytes != 1<<20 {
		t.Errorf("run totals = %+v", p.Totals)
	}
	if p.InFlight != 0 {
		t.Errorf("in-flight = %d, want 0", p.InFlight)
	}
	// Everything just recorded is inside the trailing window.
	if p.Window != p.Totals {
		t.Errorf("window %+v != totals %+v", p.Window, p.Totals)
	}
	if a.Len() != 1 {
		t.Errorf("len = %d, want 1", a.Len())
	}
}

func TestAccountantInFlight(t *testing.T) {
	a := New(Options{Capacity: 256, Window: 15 * time.Minute, Now: fixedNow(usageT0)})
	a.Begin("t", "x")
	a.Begin("t", "x")
	if p, _ := find(a.Snapshot(), "t", "x"); p.InFlight != 2 {
		t.Errorf("in-flight = %d, want 2", p.InFlight)
	}
	a.Finish("t", "x", 200, time.Millisecond)
	if p, _ := find(a.Snapshot(), "t", "x"); p.InFlight != 1 {
		t.Errorf("in-flight = %d, want 1", p.InFlight)
	}
}

func TestWindowRotation(t *testing.T) {
	now := usageT0
	a := New(Options{Capacity: 256, Window: 8 * time.Minute, Now: func() time.Time { return now }})
	a.Finish("t", "x", 200, time.Second)
	p, _ := find(a.Snapshot(), "t", "x")
	if p.Window.Requests != 1 {
		t.Fatalf("window requests = %d, want 1", p.Window.Requests)
	}
	// Advance past the whole window: the old slot expires, totals keep it.
	now = now.Add(10 * time.Minute)
	a.Finish("t", "x", 200, time.Second)
	p, _ = find(a.Snapshot(), "t", "x")
	if p.Window.Requests != 1 {
		t.Errorf("window requests after rotation = %d, want 1", p.Window.Requests)
	}
	if p.Totals.Requests != 2 {
		t.Errorf("cumulative requests = %d, want 2", p.Totals.Requests)
	}
	// Half a window later both recent slots still count... once one more
	// slot's worth passes the older point ages out slot by slot.
	now = now.Add(time.Minute)
	a.Finish("t", "x", 200, time.Second)
	p, _ = find(a.Snapshot(), "t", "x")
	if p.Window.Requests != 2 {
		t.Errorf("window requests = %d, want 2", p.Window.Requests)
	}
}

func TestEvictionIntoOtherConservesTotals(t *testing.T) {
	reg := instrument.NewRegistry()
	a := New(Options{Capacity: 8, Window: 15 * time.Minute, Now: fixedNow(usageT0), Registry: reg})
	const churn = 200
	for i := 0; i < churn; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		a.Begin(tenant, "wc")
		a.Finish(tenant, "wc", 200, time.Millisecond)
		a.RecordRun(tenant, "wc", time.Millisecond, time.Millisecond, 100, 0)
	}
	if got := a.Len(); got > 8 {
		t.Fatalf("live principals = %d, want ≤ 8", got)
	}
	if a.Evictions() == 0 {
		t.Fatal("expected evictions under churn")
	}

	// Conservation: live + other account for every event ever recorded.
	var sum Totals
	var sawOther bool
	for _, p := range a.Snapshot() {
		sum.add(p.Totals)
		if p.Rollup {
			sawOther = true
			if p.Tenant != Rollup || p.Topology != Rollup {
				t.Errorf("rollup principal = %+v", p.Principal)
			}
		}
	}
	if !sawOther {
		t.Fatal("no rollup bucket in snapshot")
	}
	want := Totals{
		Requests: churn, LatencyNanos: churn * uint64(time.Millisecond),
		Runs: churn, WallNanos: churn * uint64(time.Millisecond),
		CPUNanos: churn * uint64(time.Millisecond), AllocBytes: churn * 100,
	}
	if sum != want {
		t.Errorf("conserved totals = %+v, want %+v", sum, want)
	}

	// The registry is bounded too: evicted principals' series are gone.
	if tenants := seriesTenants(reg); len(tenants) > 8+1 { // K live + other
		t.Errorf("registry tenants = %d, want ≤ 9", len(tenants))
	}
	// Registry-side conservation on the requests counter.
	var reqSum float64
	for _, fam := range reg.Snapshot() {
		if fam.Name != MetricRequests {
			continue
		}
		for _, s := range fam.Series {
			reqSum += *s.Value
		}
	}
	if reqSum != churn {
		t.Errorf("registry requests sum = %g, want %d", reqSum, churn)
	}
}

// seriesTenants collects the distinct tenant label values currently
// exported for the per-principal request counter.
func seriesTenants(reg *instrument.Registry) map[string]bool {
	tenants := map[string]bool{}
	for _, fam := range reg.Snapshot() {
		if fam.Name != MetricRequests {
			continue
		}
		for _, s := range fam.Series {
			tenants[s.Labels["tenant"]] = true
		}
	}
	return tenants
}

func TestLRUPrefersColdVictim(t *testing.T) {
	a := New(Options{Capacity: 2, Window: 15 * time.Minute, Now: fixedNow(usageT0)})
	a.Finish("old", "x", 200, time.Millisecond)
	a.Finish("hot", "x", 200, time.Millisecond)
	a.Finish("hot", "x", 200, time.Millisecond) // touch: hot is MRU
	a.Finish("new", "x", 200, time.Millisecond) // evicts "old"
	snap := a.Snapshot()
	if _, ok := find(snap, "old", "x"); ok {
		t.Error("LRU principal survived eviction")
	}
	if _, ok := find(snap, "hot", "x"); !ok {
		t.Error("MRU principal was evicted")
	}
	if other, ok := find(snap, Rollup, Rollup); !ok || other.Totals.Requests != 1 {
		t.Errorf("rollup = %+v, ok=%v, want 1 request", other, ok)
	}
}

func TestEvictionSkipsInFlight(t *testing.T) {
	a := New(Options{Capacity: 2, Window: 15 * time.Minute, Now: fixedNow(usageT0)})
	a.Begin("busy", "x") // LRU but in flight
	a.Begin("idle", "x")
	a.Finish("idle", "x", 200, time.Millisecond)
	a.Begin("new", "x") // must evict "idle", not "busy"
	a.Finish("new", "x", 200, time.Millisecond)
	snap := a.Snapshot()
	if _, ok := find(snap, "busy", "x"); !ok {
		t.Error("in-flight principal was evicted despite an idle victim")
	}
	if _, ok := find(snap, "idle", "x"); ok {
		t.Error("idle principal survived over in-flight one")
	}
}

func TestRollupPrincipalSharesOtherBucket(t *testing.T) {
	a := New(Options{Capacity: 4, Window: 15 * time.Minute, Now: fixedNow(usageT0)})
	a.Finish(Rollup, Rollup, 200, time.Millisecond)
	snap := a.Snapshot()
	if len(snap) != 1 || !snap[0].Rollup {
		t.Fatalf("snapshot = %+v, want single rollup entry", snap)
	}
	if a.Len() != 0 {
		t.Errorf("len = %d, want 0 (rollup is not a live principal)", a.Len())
	}
}

func TestRecordPathDoesNotAllocate(t *testing.T) {
	reg := instrument.NewRegistry()
	a := New(Options{Capacity: 4, Window: 15 * time.Minute, Now: fixedNow(usageT0), Registry: reg})
	a.Finish("t", "x", 200, time.Millisecond) // warm: entry + series exist
	a.RecordRun("t", "x", time.Millisecond, time.Millisecond, 10, 0)
	allocs := testing.AllocsPerRun(200, func() {
		a.Begin("t", "x")
		a.Finish("t", "x", 200, time.Millisecond)
		a.RecordRun("t", "x", time.Millisecond, time.Millisecond, 10, 0)
	})
	if allocs != 0 {
		t.Errorf("steady-state record path allocates %.1f/op, want 0", allocs)
	}
}
