package experiments

import (
	"strings"
	"testing"
)

func TestAblationWatermarkGap(t *testing.T) {
	tbl := run(t, "ablation-watermarks", fastSweep)["ablation-watermarks"]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, f := range tbl.Findings {
		if strings.Contains(f, "WARNING") {
			t.Errorf("bimodality broke: %s", f)
		}
	}
	for _, row := range tbl.Rows {
		below, above := row[2], row[3]
		if below > 1000 {
			t.Errorf("high=%.0fMB low=%.0fMB: bp below SP = %.0f ms", row[0], row[1], below)
		}
		if above < 45_000 {
			t.Errorf("high=%.0fMB low=%.0fMB: bp above SP = %.0f ms", row[0], row[1], above)
		}
	}
}

func TestAblationCalibrationAttribution(t *testing.T) {
	tbl := run(t, "ablation-attribution", fastSweep)["ablation-attribution"]
	row := tbl.Rows[0]
	naiveSP, awareInf, trueSP := row[0], row[1], row[2]
	if awareInf != 1 {
		t.Error("topology-aware calibration fooled")
	}
	if naiveSP > 0.8*trueSP {
		t.Errorf("naive SP %.1fM should be spuriously low vs true %.1fM", naiveSP, trueSP)
	}
}

func TestAblationNoiseVsError(t *testing.T) {
	s := fastSweep
	s.Repeats = 3
	tbl := run(t, "ablation-noise", s)["ablation-noise"]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Errors at the lowest noise are below errors at the highest.
	lo := tbl.Rows[0][1] + tbl.Rows[0][2]
	hi := tbl.Rows[len(tbl.Rows)-1][1] + tbl.Rows[len(tbl.Rows)-1][2]
	if lo >= hi {
		t.Errorf("error did not grow with noise: lo %.2f hi %.2f", lo, hi)
	}
}

func TestAblationSchedulerPlans(t *testing.T) {
	tbl := run(t, "ablation-schedulers", fastSweep)["ablation-schedulers"]
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// FFD (row 1) uses no more containers than round-robin (row 0).
	if tbl.Rows[1][1] > tbl.Rows[0][1] {
		t.Errorf("ffd containers %.0f > rr %.0f", tbl.Rows[1][1], tbl.Rows[0][1])
	}
}
