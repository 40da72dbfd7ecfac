package dhalion

import (
	"strings"
	"testing"

	"caladrius/internal/heron"
)

// The evaluation scenario: 40 M sentences/minute offered, so the SLO is
// the full processed word rate ≈ 40e6 × 7.635.
const (
	offeredRate = 40e6
	sloRate     = offeredRate * heron.SplitterAlpha * 0.98
)

func TestScalerConvergesOnSLO(t *testing.T) {
	s := Scaler{RatePerMinute: offeredRate, SLOThroughputTPM: sloRate}
	res, err := s.Run(map[string]int{"spout": 8, "splitter": 1, "counter": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %s (rounds %d)", res.Reason, len(res.Rounds))
	}
	// Under-provisioned start must need several rounds — the paper's
	// complaint about reactive scaling.
	if res.Deployments() < 4 {
		t.Errorf("deployments = %d, expected ≥ 4 for a 1/1 start", res.Deployments())
	}
	// Final plan satisfies capacity arithmetic.
	if res.FinalParallelisms["splitter"] < 4 {
		t.Errorf("final splitter = %d, want ≥ 4", res.FinalParallelisms["splitter"])
	}
	if res.FinalParallelisms["counter"] < 5 {
		t.Errorf("final counter = %d, want ≥ 5", res.FinalParallelisms["counter"])
	}
	// Last round is healthy.
	last := res.Rounds[len(res.Rounds)-1]
	if last.Measurement.BackpressureMsPerMin > 5000 {
		t.Errorf("final round backpressure = %g", last.Measurement.BackpressureMsPerMin)
	}
	if last.Measurement.SinkThroughputTPM < sloRate {
		t.Errorf("final throughput = %g < SLO %g", last.Measurement.SinkThroughputTPM, sloRate)
	}
}

func TestScalerAlreadyHealthy(t *testing.T) {
	s := Scaler{RatePerMinute: offeredRate, SLOThroughputTPM: sloRate}
	res, err := s.Run(map[string]int{"spout": 8, "splitter": 5, "counter": 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Deployments() != 1 {
		t.Errorf("healthy start: converged=%v deployments=%d", res.Converged, res.Deployments())
	}
}

func TestScalerSourceLimited(t *testing.T) {
	// Offered traffic can never meet the SLO; the scaler must stop
	// rather than scale forever.
	s := Scaler{RatePerMinute: 5e6, SLOThroughputTPM: sloRate}
	res, err := s.Run(map[string]int{"spout": 8, "splitter": 2, "counter": 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("source-limited run converged")
	}
	if !strings.Contains(res.Reason, "source-limited") {
		t.Errorf("reason = %q", res.Reason)
	}
	if res.Deployments() != 1 {
		t.Errorf("deployments = %d, want 1", res.Deployments())
	}
}

func TestScalerValidation(t *testing.T) {
	if _, err := (Scaler{RatePerMinute: 1e6}).Run(map[string]int{"spout": 1}); err == nil {
		t.Error("zero SLO accepted")
	}
	if _, err := (Scaler{RatePerMinute: 1e6, SLOThroughputTPM: 1}).Run(map[string]int{"spout": 0}); err == nil {
		t.Error("zero parallelism accepted")
	}
	if _, err := (Scaler{SLOThroughputTPM: 1}).Run(map[string]int{"spout": 1}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestScalerRoundBudget(t *testing.T) {
	s := Scaler{RatePerMinute: offeredRate, SLOThroughputTPM: sloRate, MaxRounds: 2}
	res, err := s.Run(map[string]int{"spout": 8, "splitter": 1, "counter": 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Reason != "round budget exhausted" {
		t.Errorf("result = %+v", res)
	}
	if res.Deployments() != 2 {
		t.Errorf("deployments = %d", res.Deployments())
	}
}

// TestCaladriusBeatsDhalionOnDeployments reproduces the paper's core
// claim: model-driven tuning converges in far fewer deployments than
// reactive scaling. Each deployment can only pin the saturation point
// of its actual bottleneck, so the model-driven loop needs roughly one
// round per distinct bottleneck plus the final verification — three
// here — while Dhalion pays one round per scaling increment.
func TestCaladriusBeatsDhalionOnDeployments(t *testing.T) {
	initial := map[string]int{"spout": 8, "splitter": 1, "counter": 1}

	// --- Dhalion: reactive rounds.
	dres, err := Scaler{RatePerMinute: offeredRate, SLOThroughputTPM: sloRate}.Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Converged {
		t.Fatalf("dhalion did not converge: %s", dres.Reason)
	}

	// --- Caladrius: calibrate-and-plan loop.
	cres, err := CaladriusTuner{RatePerMinute: offeredRate, SLOThroughputTPM: sloRate}.Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Converged {
		t.Fatalf("caladrius did not converge: %s (rounds %+v)", cres.Reason, cres.Rounds)
	}
	last := cres.Rounds[len(cres.Rounds)-1]
	if last.Measurement.SinkThroughputTPM < sloRate {
		t.Fatalf("caladrius final throughput %g < SLO %g", last.Measurement.SinkThroughputTPM, sloRate)
	}
	if cres.Deployments() >= dres.Deployments() {
		t.Errorf("caladrius used %d deployments, dhalion %d — model should win", cres.Deployments(), dres.Deployments())
	}
	if cres.Deployments() > 4 {
		t.Errorf("caladrius used %d deployments, expected ≤ 4 (one per bottleneck + verify)", cres.Deployments())
	}
}
