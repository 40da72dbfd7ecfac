package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func defaultOptions() options {
	return options{
		rate:       15e6,
		spoutP:     8,
		splitterP:  1,
		counterP:   3,
		containers: 2,
		minutes:    10,
		csv:        true,
	}
}

// TestFaultPlanGolden replays the committed fault plan and compares the
// CSV byte-for-byte against the committed golden file: the simulator +
// injector stack must stay deterministic across runs and refactors.
// Regenerate with `go test ./cmd/heronsim -run Golden -update` after an
// intentional simulator change, and review the diff.
func TestFaultPlanGolden(t *testing.T) {
	o := defaultOptions()
	o.faultsPath = filepath.Join("testdata", "plan.json")
	var out, errOut bytes.Buffer
	if err := run(o, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// The fault trace goes to stderr and must mention every scheduled
	// fault, in order.
	trace := errOut.String()
	for _, want := range []string{"slow splitter[0]", "crash counter[1]", "stall container 1"} {
		if !strings.Contains(trace, want) {
			t.Errorf("fault trace missing %q:\n%s", want, trace)
		}
	}

	golden := filepath.Join("testdata", "golden.csv")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("CSV output diverged from %s (%d vs %d bytes); run with -update and review the diff",
			golden, out.Len(), len(want))
	}

	// Replay: a second run of the same plan is byte-identical on both
	// streams — the CLI surface of the determinism invariant.
	var out2, errOut2 bytes.Buffer
	if err := run(o, &out2, &errOut2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) || errOut.String() != errOut2.String() {
		t.Error("replaying the same fault plan produced different output")
	}
}

// TestFaultPlanChangesOutput guards against the injector silently not
// being wired in: the faulted run must differ from a fault-free one.
func TestFaultPlanChangesOutput(t *testing.T) {
	faulted, clean := defaultOptions(), defaultOptions()
	faulted.faultsPath = filepath.Join("testdata", "plan.json")
	var a, b, discard bytes.Buffer
	if err := run(faulted, &a, &discard); err != nil {
		t.Fatal(err)
	}
	if err := run(clean, &b, &discard); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("fault plan had no effect on the CSV output")
	}
}

func TestBadFaultPlan(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"faults":[{"kind":"crash","at":"1m","duration":"30s","component":"nonexistent"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o := defaultOptions()
	o.faultsPath = bad
	if err := run(o, &bytes.Buffer{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown component") {
		t.Errorf("bad plan error = %v, want unknown component", err)
	}
	o.faultsPath = filepath.Join(dir, "missing.json")
	if err := run(o, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("missing plan file accepted")
	}
}

// TestNonPositiveShapeRefused: a zero or negative parallelism,
// container count or run length is an error that names its flag, not a
// run of the preset's shape or an empty table.
func TestNonPositiveShapeRefused(t *testing.T) {
	for flag, set := range map[string]func(*options, int){
		"-spout":      func(o *options, v int) { o.spoutP = v },
		"-splitter":   func(o *options, v int) { o.splitterP = v },
		"-counter":    func(o *options, v int) { o.counterP = v },
		"-containers": func(o *options, v int) { o.containers = v },
		"-minutes":    func(o *options, v int) { o.minutes = v },
	} {
		for _, v := range []int{0, -1} {
			o := defaultOptions()
			set(&o, v)
			var out bytes.Buffer
			err := run(o, &out, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), flag+" ") {
				t.Errorf("%s %d: err = %v, want one naming %s", flag, v, err, flag)
			}
			if out.Len() > 0 {
				t.Errorf("%s %d: printed %d bytes before refusing", flag, v, out.Len())
			}
		}
	}
}

// TestMetricsFaultPlanRefused: heronsim reads the simulator's own store,
// so a metrics fault could never fire and the run would print a clean
// table with no fault trace. A plan holding one is an error.
func TestMetricsFaultPlanRefused(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "outage.json")
	if err := os.WriteFile(plan, []byte(`{"faults":[{"kind":"metrics-outage","at":"2m","duration":"1m"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o := defaultOptions()
	o.faultsPath = plan
	if err := run(o, &bytes.Buffer{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "metrics-outage") {
		t.Errorf("metrics-outage plan error = %v, want one naming metrics-outage", err)
	}
}

// TestNonFiniteTraceRefused: a trace whose rate is not a finite number
// stops the run with an error naming the line, instead of replaying
// NaN into the simulator.
func TestNonFiniteTraceRefused(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "nan.csv")
	if err := os.WriteFile(trace, []byte("elapsed_seconds,tuples_per_minute\n0,12000000\n300,NaN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := defaultOptions()
	o.tracePath = trace
	if err := run(o, &bytes.Buffer{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("NaN trace error = %v, want one naming line 3", err)
	}
}
