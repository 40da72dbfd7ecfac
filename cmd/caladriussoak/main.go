// Command caladriussoak is the chaos soak for the Caladrius serving
// tier: a check that passes or fails, not a measurement (benchmark/ is
// what measures the service). It wires the shipped daemon in-process
// (demo simulator, scheduler, audit ledger, usage accountant,
// self-monitoring scraper and SLO evaluator), drives it with one fixed
// request cycle (predict 4, query_range 3, plan 1, audit 1, usage 1 in
// ten, from four closed-loop workers) while a chaos fault plan
// (internal/chaos) takes the metrics backend away, and asserts at exit
// that the 5xx SLO fired and resolved, every response was accounted
// for, and no goroutines or heap leaked.
//
// The verdict is one JSON document on stdout; each failed assertion is
// a line on stderr and the exit status is 2. The daemon serves a
// pre-simulated history with no fault injector, so -chaos-plan takes
// metrics faults only: a plan with simulator faults (crash, slow, stall,
// partition) is an error, exit status 1.
//
//	go run ./cmd/caladriussoak -duration 6s -slo-window 4s -settle 12s
//	caladriussoak -chaos-plan plan.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"caladrius/internal/chaos"
	"caladrius/internal/soak"
)

func main() {
	passed, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "caladriussoak:", err)
		os.Exit(1)
	}
	if !passed {
		os.Exit(2)
	}
}

func run() (passed bool, err error) {
	duration := flag.Duration("duration", 10*time.Second, "load phase length")
	sloWindow := flag.Duration("slo-window", 5*time.Second, "window of the HTTP SLO rules")
	settle := flag.Duration("settle", 15*time.Second, "bound on the post-load wait for the SLOs to resolve")
	chaosPlan := flag.String("chaos-plan", "", "chaos plan JSON file; empty uses a metrics outage over the second quarter of the run")
	flag.Parse()

	cfg := soak.SoakConfig{Duration: *duration, SLOWindow: *sloWindow, Settle: *settle}
	if *chaosPlan != "" {
		data, err := os.ReadFile(*chaosPlan)
		if err != nil {
			return false, err
		}
		if cfg.Plan, err = chaos.ParsePlan(data); err != nil {
			return false, err
		}
	}
	res, err := soak.RunSoak(cfg)
	if err != nil {
		return false, err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "caladriussoak: soak FAIL:", f)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	if _, err := os.Stdout.Write(append(data, '\n')); err != nil {
		return false, err
	}
	return res.Passed(), nil
}
