package heron

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/workload"
)

// saturatingWordCount saturates a single splitter (SP ≈ 10.8 M/min) for
// 5 minutes, then drops well below saturation so queues drain and the
// backpressure flags clear. reg may be nil.
func saturatingWordCount(t *testing.T, reg *instrument.Registry) *Simulation {
	t.Helper()
	sim, err := NewWordCount(WordCountOptions{
		SplitterP: 1,
		Schedule:  workload.StepRate(20e6/60, 2e6/60, 5*time.Minute),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func snapshotBytes(t *testing.T, sim *Simulation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sim.DB().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// simEventValues reads the simulator's event instruments for word-count.
type simEventValues struct {
	ticks, processed, dropped, bpOn, bpOff, active float64
}

func readSimEvents(reg *instrument.Registry) simEventValues {
	l := instrument.Labels{"topology": "word-count"}
	return simEventValues{
		ticks:     reg.Counter("caladrius_sim_ticks_total", l).Value(),
		processed: reg.Counter("caladrius_sim_tuples_processed_total", l).Value(),
		dropped:   reg.Counter("caladrius_sim_tuples_dropped_total", l).Value(),
		bpOn:      reg.Counter("caladrius_sim_backpressure_transitions_total", instrument.Labels{"topology": "word-count", "state": "on"}).Value(),
		bpOff:     reg.Counter("caladrius_sim_backpressure_transitions_total", instrument.Labels{"topology": "word-count", "state": "off"}).Value(),
		active:    reg.Gauge("caladrius_sim_backpressure_active_instances", l).Value(),
	}
}

// TestSimulatorEventTelemetry drives the word-count topology into and
// out of saturation and checks the simulator's event counters: ticks,
// processed tuples and backpressure transitions in both directions.
func TestSimulatorEventTelemetry(t *testing.T) {
	reg := instrument.NewRegistry()
	sim := saturatingWordCount(t, reg)
	if err := sim.Run(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	got := readSimEvents(reg)
	wantTicks := float64(15 * time.Minute / (100 * time.Millisecond))
	if got.ticks != wantTicks {
		t.Errorf("ticks = %g, want %g", got.ticks, wantTicks)
	}
	if got.processed < 50e6 {
		t.Errorf("processed = %g, want ≥ 50e6", got.processed)
	}
	if got.bpOn < 1 || got.bpOff < 1 {
		t.Errorf("backpressure transitions on=%g off=%g, want ≥ 1 each", got.bpOn, got.bpOff)
	}
	if got.active != 0 {
		t.Errorf("active backpressure at low rate = %g, want 0", got.active)
	}
	// The word-count profiles have no failure rate and no OOM pressure.
	if got.dropped != 0 {
		t.Errorf("dropped = %g, want 0", got.dropped)
	}
}

// TestEventTelemetryLeavesMetricsUnchanged holds the simulator's
// output independent of its event telemetry: the same run with and
// without a registry writes byte-identical metric snapshots.
func TestEventTelemetryLeavesMetricsUnchanged(t *testing.T) {
	with := saturatingWordCount(t, instrument.NewRegistry())
	without := saturatingWordCount(t, nil)
	for _, sim := range []*Simulation{with, without} {
		if err := sim.Run(15 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snapshotBytes(t, with), snapshotBytes(t, without)) {
		t.Fatal("registry-attached and registry-free runs wrote different snapshots")
	}
}

// TestEventTelemetryPerRunEquivalence checks that publishing once per
// Run is invisible to readers between Runs: one Run(15m) and 150
// Run(6s) write identical snapshots and agree on every instrument
// (processed up to float association), and after each short Run the
// gauge counts the instances in backpressure and the tick counter
// counts the ticks so far.
func TestEventTelemetryPerRunEquivalence(t *testing.T) {
	oneReg, chunkReg := instrument.NewRegistry(), instrument.NewRegistry()
	one, chunked := saturatingWordCount(t, oneReg), saturatingWordCount(t, chunkReg)
	if err := one.Run(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	sawBackpressure := false
	for i := 1; i <= 150; i++ {
		if err := chunked.Run(6 * time.Second); err != nil {
			t.Fatal(err)
		}
		var active float64
		for _, inst := range chunked.Snapshot() {
			if inst.InBackpressure {
				active++
			}
		}
		got := readSimEvents(chunkReg)
		if got.active != active {
			t.Fatalf("after Run %d: active gauge = %g, want %g", i, got.active, active)
		}
		if want := float64(60 * i); got.ticks != want {
			t.Fatalf("after Run %d: ticks = %g, want %g", i, got.ticks, want)
		}
		sawBackpressure = sawBackpressure || active > 0
	}
	if !sawBackpressure {
		t.Fatal("the schedule never saturated the splitter; the gauge check is vacuous")
	}
	if !bytes.Equal(snapshotBytes(t, one), snapshotBytes(t, chunked)) {
		t.Fatal("one Run and 150 Runs wrote different snapshots")
	}
	a, b := readSimEvents(oneReg), readSimEvents(chunkReg)
	if rel := math.Abs(a.processed-b.processed) / a.processed; rel > 1e-12 {
		t.Errorf("processed: one Run %g, 150 Runs %g (relative difference %g)", a.processed, b.processed, rel)
	}
	a.processed, b.processed = 0, 0
	if a != b {
		t.Errorf("one Run %+v, 150 Runs %+v", a, b)
	}
}

// TestRunZeroLeavesTelemetryUntouched holds that a Run executing no
// tick publishes nothing: in particular it does not reset the
// backpressure gauge.
func TestRunZeroLeavesTelemetryUntouched(t *testing.T) {
	reg := instrument.NewRegistry()
	sim := saturatingWordCount(t, reg)
	if err := sim.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if readSimEvents(reg).active == 0 {
		t.Fatal("no instance in backpressure after 3 saturated minutes; the check is vacuous")
	}
	before := reg.Snapshot()
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if after := reg.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("Run(0) changed the registry:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestSimulatorWithoutRegistry checks the nil-registry fast path stays
// inert.
func TestSimulatorWithoutRegistry(t *testing.T) {
	sim, err := NewWordCount(WordCountOptions{RatePerMinute: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if sim.events != nil {
		t.Fatal("events created without a registry")
	}
	if err := sim.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
}
