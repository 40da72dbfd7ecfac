package main

// Example pins the program's output: a change to the models, the
// simulator or the service that moves any number it prints fails here.
func Example() {
	main()
	// Output:
	// goal: sustain 299 M words/min from a (splitter=1, counter=1) start
	//
	// == dhalion (reactive):
	//    round  1: splitter=1 counter=1 →   68.4 M words/min — backpressure at splitter: scale 1 → 2
	//    round  2: splitter=2 counter=1 →   68.4 M words/min — backpressure at counter: scale 1 → 2
	//    round  3: splitter=2 counter=2 →  136.8 M words/min — backpressure at splitter: scale 2 → 3
	//    round  4: splitter=3 counter=2 →  136.8 M words/min — backpressure at counter: scale 2 → 3
	//    round  5: splitter=3 counter=3 →  205.2 M words/min — backpressure at splitter: scale 3 → 4
	//    round  6: splitter=4 counter=3 →  205.2 M words/min — backpressure at counter: scale 3 → 4
	//    round  7: splitter=4 counter=4 →  273.6 M words/min — backpressure at splitter: scale 4 → 6
	//    round  8: splitter=6 counter=4 →  273.6 M words/min — backpressure at counter: scale 4 → 6
	//    round  9: splitter=6 counter=6 →  305.4 M words/min — healthy: SLO met without backpressure
	//    dhalion converged after 9 deployments
	//
	// == caladrius (model-driven):
	//    round  1: splitter=1 counter=1 →   68.4 M words/min — calibrated counter SP; model plan → splitter=1 counter=6
	//    round  2: splitter=1 counter=6 →   82.5 M words/min — calibrated splitter SP; model plan → splitter=5 counter=6
	//    round  3: splitter=5 counter=6 →  305.4 M words/min — healthy: SLO met without backpressure
	//    caladrius converged after 3 deployments
	//
	// result: dhalion 9 deployments, caladrius 3 — a 3.0x reduction in tuning iterations.
}
