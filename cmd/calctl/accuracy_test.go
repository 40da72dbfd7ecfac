package main

import (
	"strings"
	"testing"

	"caladrius/internal/audit"
)

// TestAccuracyCommand drives a graded and a counterfactual prediction,
// resolves the ledger, and checks the summary rendering.
func TestAccuracyCommand(t *testing.T) {
	srv, d := newTestServer(t)
	led := d.Ledger
	base := []string{"-server", srv.URL}
	// Graded run (deployed config at observed rate) and a what-if run.
	if err := run(append(append([]string{}, base...), "perf", "word-count")); err != nil {
		t.Fatalf("perf: %v", err)
	}
	if err := run(append(append([]string{}, base...), "perf", "word-count", "-rate", "10e6")); err != nil {
		t.Fatalf("perf -rate: %v", err)
	}

	// Before resolution: records list as pending, no stats yet.
	out, err := captureStdout(t, func() error {
		return run(append(append([]string{}, base...), "accuracy"))
	})
	if err != nil {
		t.Fatalf("accuracy: %v", err)
	}
	if !strings.Contains(out, "no resolved audit records yet") || !strings.Contains(out, "pending") {
		t.Fatalf("pre-resolve output = %q", out)
	}

	recs := led.List(audit.Filter{})
	if len(recs) != 2 {
		t.Fatalf("ledger holds %d records, want 2", len(recs))
	}
	if n := led.ResolveOnce(recs[0].CreatedAt); n != 2 {
		t.Fatalf("ResolveOnce = %d, want 2", n)
	}

	out, err = captureStdout(t, func() error {
		return run(append(append([]string{}, base...), "accuracy", "-limit", "5"))
	})
	if err != nil {
		t.Fatalf("accuracy after resolve: %v", err)
	}
	for _, want := range []string{"word-count", "predict", "resolved", "counterfactual", "mape"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// -raw dumps the JSON payload.
	out, err = captureStdout(t, func() error {
		return run(append(append([]string{}, base...), "accuracy", "-raw"))
	})
	if err != nil {
		t.Fatalf("accuracy -raw: %v", err)
	}
	if !strings.Contains(out, "\"records\"") {
		t.Errorf("-raw output is not the wire payload:\n%s", out)
	}

	// Model filter narrows the records table to nothing for an unused
	// model kind — the table (keyed by its header) must be absent. The
	// stats summary is deliberately unfiltered, so "predict" may still
	// appear there.
	out, err = captureStdout(t, func() error {
		return run(append(append([]string{}, base...), "accuracy", "-model", "plan"))
	})
	if err != nil {
		t.Fatalf("accuracy -model plan: %v", err)
	}
	if strings.Contains(out, "pred_sink_tpm") {
		t.Errorf("-model plan output still renders a records table:\n%s", out)
	}
}
