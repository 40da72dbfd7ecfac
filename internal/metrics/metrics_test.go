package metrics

import (
	"errors"
	"math"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/tsdb"
)

func runSim(t *testing.T, opts heron.WordCountOptions, minutes int) *heron.Simulation {
	t.Helper()
	s, err := heron.NewWordCount(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Duration(minutes) * time.Minute); err != nil {
		t.Fatal(err)
	}
	return s
}

func provider(t *testing.T, s *heron.Simulation) *TSDBProvider {
	t.Helper()
	p, err := NewTSDBProvider(s.DB(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewTSDBProviderValidation(t *testing.T) {
	if _, err := NewTSDBProvider(nil, time.Minute); err == nil {
		t.Error("nil db accepted")
	}
	if _, err := NewTSDBProvider(tsdb.New(0), 0); err == nil {
		t.Error("zero window accepted")
	}
	p, err := NewTSDBProvider(tsdb.New(0), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if p.window != time.Minute {
		t.Errorf("window = %s", p.window)
	}
}

func TestComponentWindows(t *testing.T) {
	s := runSim(t, heron.WordCountOptions{RatePerMinute: 6e6}, 6)
	p := provider(t, s)
	ws, err := p.ComponentWindows("word-count", "splitter", s.Start(), s.Start().Add(6*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 6 {
		t.Fatalf("windows = %d, want 6", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if !ws[i].T.After(ws[i-1].T) {
			t.Fatal("windows not ascending")
		}
	}
	// Steady-state window: execute ≈ 6e6/min, emit ≈ α×execute.
	w := ws[3]
	if math.Abs(w.Execute-6e6)/6e6 > 0.02 {
		t.Errorf("execute = %.4g", w.Execute)
	}
	if ratio := w.Emit / w.Execute; math.Abs(ratio-heron.SplitterAlpha) > 0.01 {
		t.Errorf("alpha = %.4f", ratio)
	}
	if w.Source != 0 {
		t.Errorf("bolt source = %g, want 0", w.Source)
	}
	if w.CPULoad <= 0 {
		t.Errorf("cpu = %g", w.CPULoad)
	}
	if w.BackpressureMs != 0 {
		t.Errorf("bp = %g", w.BackpressureMs)
	}
}

func TestInstanceWindowsSumToComponent(t *testing.T) {
	s := runSim(t, heron.WordCountOptions{SplitterP: 3, RatePerMinute: 9e6}, 5)
	p := provider(t, s)
	comp, err := p.ComponentWindows("word-count", "splitter", s.Start(), s.Start().Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	var instSum float64
	for i := 0; i < 3; i++ {
		ws, err := p.InstanceWindows("word-count", "splitter", i, s.Start(), s.Start().Add(5*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != len(comp) {
			t.Fatalf("instance %d windows = %d, component = %d", i, len(ws), len(comp))
		}
		instSum += ws[2].Execute
	}
	if math.Abs(instSum-comp[2].Execute) > 1e-6*comp[2].Execute {
		t.Errorf("instance sum %.6g != component %.6g", instSum, comp[2].Execute)
	}
}

func TestSourceRate(t *testing.T) {
	s := runSim(t, heron.WordCountOptions{RatePerMinute: 4e6}, 5)
	p := provider(t, s)
	pts, err := p.SourceRate("word-count", []string{"spout"}, s.Start(), s.Start().Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if math.Abs(pt.V-4e6)/4e6 > 0.01 {
			t.Errorf("source = %.4g at %v", pt.V, pt.T)
		}
	}
	if _, err := p.SourceRate("word-count", nil, s.Start(), s.Start().Add(time.Minute)); err == nil {
		t.Error("empty spout list accepted")
	}
	if _, err := p.SourceRate("ghost", []string{"spout"}, s.Start(), s.Start().Add(time.Minute)); !errors.Is(err, ErrNoData) {
		t.Errorf("unknown topology: %v", err)
	}
}

func TestTopologyBackpressure(t *testing.T) {
	s := runSim(t, heron.WordCountOptions{RatePerMinute: 15e6}, 8)
	p := provider(t, s)
	pts, err := p.TopologyBackpressureMs("word-count", s.Start().Add(4*time.Minute), s.Start().Add(8*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.V < 50_000 {
			t.Errorf("bp at %v = %.0f, want ≳50000", pt.T, pt.V)
		}
	}
}

func TestWindowsErrNoData(t *testing.T) {
	db := tsdb.New(0)
	p, err := NewTSDBProvider(db, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ComponentWindows("t", "c", time.Unix(0, 0), time.Unix(3600, 0)); !errors.Is(err, ErrNoData) {
		t.Errorf("empty db: %v", err)
	}
}

func TestSummarise(t *testing.T) {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	ws := []Window{
		{T: base, Execute: 100, Emit: 700}, // warmup
		{T: base.Add(time.Minute), Execute: 200, Emit: 1400, CPULoad: 1, BackpressureMs: 1000},
		{T: base.Add(2 * time.Minute), Execute: 300, Emit: 2100, CPULoad: 2, BackpressureMs: 2000},
	}
	s, err := Summarise(ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Windows != 2 || s.Execute != 250 || s.Emit != 1750 || s.CPULoad != 1.5 || s.BackpressureMs != 1500 {
		t.Errorf("summary = %+v", s)
	}
	if _, err := Summarise(ws, 3); err == nil {
		t.Error("warmup ≥ len accepted")
	}
	// Negative warmup treated as zero.
	s, err = Summarise(ws, -5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Windows != 3 {
		t.Errorf("windows = %d", s.Windows)
	}
}

func TestComponentWindowsLatency(t *testing.T) {
	// Saturated splitter: latency reflects watermark-bounded queues
	// and merges across instances by mean, not sum.
	s := runSim(t, heron.WordCountOptions{SplitterP: 2, RatePerMinute: 30e6}, 8)
	p := provider(t, s)
	ws, err := p.ComponentWindows("word-count", "splitter", s.Start().Add(4*time.Minute), s.Start().Add(8*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Summarise(ws, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss.LatencyMs < 500 {
		t.Errorf("saturated latency = %.0f ms, want ≳500", ss.LatencyMs)
	}
	// Mean-merge sanity: component latency is close to each instance's
	// latency, not their sum.
	iw, err := p.InstanceWindows("word-count", "splitter", 0, s.Start().Add(4*time.Minute), s.Start().Add(8*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	iss, err := Summarise(iw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss.LatencyMs > 1.5*iss.LatencyMs {
		t.Errorf("component latency %.0f should not sum instances (instance %.0f)", ss.LatencyMs, iss.LatencyMs)
	}
}
