package main

// Example pins the program's output: a change to the models, the
// simulator or the service that moves any number it prints fails here.
func Example() {
	main()
	// Output:
	// == calibrating word-count models (one linear run, one saturated run per bolt)
	// == scheduler packing plans for (spout=8, splitter=4, counter=5):
	//    round-robin            containers=4 graph: 21 vertices / 85 edges, worst cross-container stream fraction 75%
	//    first-fit-decreasing   containers=3 graph: 20 vertices / 75 edges, worst cross-container stream fraction 100%
	// == candidate configurations at 45 M tuples/min (evaluated in parallel):
	//    splitter=4 counter=4 → risk high  saturates at   35.8 M  CPU 7.5 cores
	//    splitter=5 counter=5 → risk high  saturates at   44.8 M  CPU 9.4 cores
	//    splitter=5 counter=6 → risk low   saturates at   53.8 M  CPU 9.5 cores
	//    splitter=6 counter=7 → risk low   saturates at   62.7 M  CPU 9.5 cores
	// done: cheapest safe plan is splitter=5 counter=6 (9.5 cores) — chosen without a single deployment.
}
