// Word-count tuning race: Dhalion's reactive scaling loop versus
// Caladrius' model-driven planning, on the paper's motivating problem —
// bringing an under-provisioned topology up to a throughput SLO.
//
// Dhalion deploys, waits for the topology to stabilise, reads the
// symptoms, scales the bottleneck one step, and repeats — one
// deployment per increment. Caladrius treats every deployment as a
// calibration opportunity: the run pins the current bottleneck's
// saturation point, and the model's dry run then sizes that component
// exactly, so the loop needs roughly one deployment per *distinct*
// bottleneck plus a final verification.
//
// Run with: go run ./examples/wordcount_tuning
package main

import (
	"fmt"
	"log"

	"caladrius/internal/dhalion"
	"caladrius/internal/heron"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const rate = 40e6 // offered tuples/minute
	slo := rate * heron.SplitterAlpha * 0.98
	initial := map[string]int{"spout": 8, "splitter": 1, "counter": 1}
	fmt.Printf("goal: sustain %.0f M words/min from a (splitter=1, counter=1) start\n\n", slo/1e6)

	// --- Dhalion: symptom → diagnosis → resolution, repeatedly. -------
	fmt.Println("== dhalion (reactive):")
	dres, err := dhalion.Scaler{RatePerMinute: rate, SLOThroughputTPM: slo}.Run(initial)
	if err != nil {
		return err
	}
	for i, round := range dres.Rounds {
		fmt.Printf("   round %2d: splitter=%d counter=%d → %6.1f M words/min — %s\n",
			i+1, round.Parallelisms["splitter"], round.Parallelisms["counter"],
			round.Measurement.SinkThroughputTPM/1e6, round.Diagnosis)
	}
	fmt.Printf("   dhalion converged after %d deployments\n\n", dres.Deployments())

	// --- Caladrius: calibrate from each deployment, plan the next. ----
	fmt.Println("== caladrius (model-driven):")
	cres, err := dhalion.CaladriusTuner{RatePerMinute: rate, SLOThroughputTPM: slo}.Run(initial)
	if err != nil {
		return err
	}
	for i, round := range cres.Rounds {
		fmt.Printf("   round %2d: splitter=%d counter=%d → %6.1f M words/min — %s\n",
			i+1, round.Parallelisms["splitter"], round.Parallelisms["counter"],
			round.Measurement.SinkThroughputTPM/1e6, round.Diagnosis)
	}
	if !cres.Converged {
		return fmt.Errorf("caladrius did not converge: %s", cres.Reason)
	}
	fmt.Printf("   caladrius converged after %d deployments\n", cres.Deployments())

	fmt.Printf("\nresult: dhalion %d deployments, caladrius %d — a %.1fx reduction in tuning iterations.\n",
		dres.Deployments(), cres.Deployments(), float64(dres.Deployments())/float64(cres.Deployments()))
	return nil
}
