package chaos

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/topology"
)

func wordCountTargets(t testing.TB) (*topology.Topology, *topology.PackingPlan) {
	t.Helper()
	topo, err := heron.WordCountTopology(8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := topology.RoundRobinPack(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	return topo, pack
}

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(150 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"2m30s"` {
		t.Errorf("marshal = %s, want \"2m30s\"", b)
	}
	for _, in := range []string{`"2m30s"`, `150000000000`} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", in, err)
		}
		if time.Duration(d) != 150*time.Second {
			t.Errorf("unmarshal %s = %s, want 2m30s", in, time.Duration(d))
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"nonsense"`), &d); err == nil {
		t.Error("unmarshal \"nonsense\": want error")
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Error("unmarshal true: want error")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{Seed: 7, Faults: []Fault{
		{Kind: FaultCrash, At: Duration(time.Minute), Duration: Duration(30 * time.Second), Component: "splitter", Instance: 1},
		{Kind: FaultSlow, At: Duration(2 * time.Minute), Duration: Duration(time.Minute), Component: "counter", Instance: AllInstances, Factor: 0.25},
		{Kind: FaultStall, At: Duration(4 * time.Minute), Duration: Duration(20 * time.Second), Container: 1},
		{Kind: FaultMetricsLatency, At: 0, Duration: Duration(time.Minute), Latency: Duration(5 * time.Millisecond)},
	}}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestParsePlanRejectsUnknownFields(t *testing.T) {
	_, err := ParsePlan([]byte(`{"faults":[{"kind":"crash","at":"1m","duration":"30s","componnet":"splitter"}]}`))
	if err == nil || !strings.Contains(err.Error(), "componnet") {
		t.Errorf("want unknown-field error naming the typo, got %v", err)
	}
}

// TestPlanReaderRejectsMalformedPlans: a plan file that says more than
// one plan, or a fault whose end overflows time.Duration and so falls
// before its onset, is refused rather than run as something else.
func TestPlanReaderRejectsMalformedPlans(t *testing.T) {
	topo, pack := wordCountTargets(t)
	cases := []struct {
		name, src, wantErr string
	}{
		{"second plan after the first",
			`{"faults":[]}{"faults":[{"kind":"crash","at":"1m","duration":"30s","component":"splitter"}]}`,
			"trailing data"},
		{"garbage after the plan", `{"faults":[]} x`, "trailing data"},
		{"end overflows",
			`{"faults":[{"kind":"metrics-outage","at":"2000000h","duration":"2000000h"}]}`,
			"overflows"},
	}
	for _, tc := range cases {
		p, err := ParsePlan([]byte(tc.src))
		if err == nil {
			err = p.Validate(topo, pack)
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzParsePlan: whatever the file says, ParsePlan returns a plan or an
// error and never both; a parsed plan survives re-encoding unchanged;
// and a plan that validates has every fault end after its onset.
func FuzzParsePlan(f *testing.F) {
	seed, err := os.ReadFile("../../cmd/heronsim/testdata/plan.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"seed":7,"faults":[{"kind":"metrics-latency","at":0,"duration":"1m","latency":"5ms"}]}`))
	f.Add([]byte(`{"faults":[]}{"faults":[]}`))
	f.Add([]byte(`{"faults":[{"kind":"metrics-gap","at":"2000000h","duration":"2000000h"}]}`))
	topo, pack := wordCountTargets(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			if p != nil {
				t.Fatalf("ParsePlan returned a plan with error %v", err)
			}
			return
		}
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ParsePlan(again)
		if err != nil {
			t.Fatalf("re-parse %s: %v", again, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v", back, p)
		}
		if p.Validate(topo, pack) == nil {
			for _, fa := range p.Faults {
				if fa.End() <= time.Duration(fa.At) {
					t.Fatalf("validated fault %s ends at %s, before its onset %s", fa, fa.End(), time.Duration(fa.At))
				}
			}
		}
	})
}

func TestValidate(t *testing.T) {
	topo, pack := wordCountTargets(t)
	ok := func(f ...Fault) error { return (&Plan{Faults: f}).Validate(topo, pack) }
	min, sec := Duration(time.Minute), Duration(time.Second)

	cases := []struct {
		name    string
		faults  []Fault
		wantErr string // "" means valid
	}{
		{"valid mixed", []Fault{
			{Kind: FaultCrash, At: min, Duration: 30 * sec, Component: "splitter", Instance: 0},
			{Kind: FaultSlow, At: 2 * min, Duration: min, Component: "splitter", Instance: 0, Factor: 0.5},
			{Kind: FaultPartition, At: 4 * min, Duration: 30 * sec, Container: 0},
			{Kind: FaultMetricsOutage, At: 0, Duration: min},
		}, ""},
		{"negative onset", []Fault{{Kind: FaultCrash, At: -min, Duration: min, Component: "splitter"}}, "negative onset"},
		{"zero duration", []Fault{{Kind: FaultCrash, At: min, Duration: 0, Component: "splitter"}}, "non-positive duration"},
		{"unknown kind", []Fault{{Kind: "meteor", At: 0, Duration: min}}, "unknown kind"},
		{"unknown component", []Fault{{Kind: FaultCrash, At: 0, Duration: min, Component: "mapper"}}, "unknown component"},
		{"instance out of range", []Fault{{Kind: FaultCrash, At: 0, Duration: min, Component: "splitter", Instance: 3}}, "out of range"},
		{"bad slow factor", []Fault{{Kind: FaultSlow, At: 0, Duration: min, Component: "splitter", Instance: 0}}, "slow factor"},
		{"container out of range", []Fault{{Kind: FaultStall, At: 0, Duration: min, Container: 2}}, "out of range"},
		{"bad latency", []Fault{{Kind: FaultMetricsLatency, At: 0, Duration: min}}, "non-positive latency"},
		{"same-instance overlap", []Fault{
			{Kind: FaultCrash, At: min, Duration: min, Component: "splitter", Instance: 1},
			{Kind: FaultSlow, At: min + 30*sec, Duration: min, Component: "splitter", Instance: 1, Factor: 0.5},
		}, "overlap"},
		{"all-instances overlaps specific", []Fault{
			{Kind: FaultSlow, At: min, Duration: min, Component: "counter", Instance: AllInstances, Factor: 0.5},
			{Kind: FaultCrash, At: min, Duration: 30 * sec, Component: "counter", Instance: 2},
		}, "overlap"},
		{"container overlaps member instance", []Fault{
			{Kind: FaultStall, At: min, Duration: min, Container: 0},
			{Kind: FaultCrash, At: min + 10*sec, Duration: 10 * sec, Component: "spout", Instance: 0},
		}, "overlap"},
		{"back-to-back is not overlap", []Fault{
			{Kind: FaultCrash, At: min, Duration: min, Component: "splitter", Instance: 0},
			{Kind: FaultSlow, At: 2 * min, Duration: min, Component: "splitter", Instance: 0, Factor: 0.5},
		}, ""},
	}
	for _, tc := range cases {
		err := ok(tc.faults...)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestGeneratePlanDeterministicAndValid(t *testing.T) {
	topo, pack := wordCountTargets(t)
	opts := GenOptions{Horizon: 30 * time.Minute, Faults: 8}
	a, err := GeneratePlan(42, topo, pack, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePlan(42, topo, pack, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different plans")
	}
	c, err := GeneratePlan(43, topo, pack, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
	// Faults >= len(Kinds) cycles through every kind.
	seen := map[FaultKind]bool{}
	for _, f := range a.Faults {
		seen[f.Kind] = true
		if time.Duration(f.At) < opts.Horizon/6 || f.End() > 2*opts.Horizon/3 {
			t.Errorf("fault %s at [%s,%s) outside the generation region", f, time.Duration(f.At), f.End())
		}
	}
	for _, k := range SimKinds {
		if !seen[k] {
			t.Errorf("kind %s never generated with %d faults", k, opts.Faults)
		}
	}
	if a.Seed != 42 {
		t.Errorf("plan seed = %d, want 42 (provenance)", a.Seed)
	}
}

func TestPlanPartitionAndLastEnd(t *testing.T) {
	min := Duration(time.Minute)
	p := &Plan{Faults: []Fault{
		{Kind: FaultMetricsGap, At: 5 * min, Duration: min},
		{Kind: FaultCrash, At: 3 * min, Duration: min, Component: "splitter", Instance: 0},
		{Kind: FaultSlow, At: min, Duration: min, Component: "counter", Instance: 0, Factor: 0.5},
	}}
	sim, met := p.SimFaults(), p.MetricsFaults()
	if len(sim) != 2 || len(met) != 1 {
		t.Fatalf("partition = %d sim + %d metrics, want 2 + 1", len(sim), len(met))
	}
	if sim[0].Kind != FaultSlow || sim[1].Kind != FaultCrash {
		t.Errorf("sim faults not in schedule order: %v, %v", sim[0].Kind, sim[1].Kind)
	}
	if got := p.LastSimFaultEnd(); got != 4*time.Minute {
		t.Errorf("LastSimFaultEnd = %s, want 4m (metrics faults excluded)", got)
	}
}
