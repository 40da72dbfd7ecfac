package main

// Example pins the program's output: a change to the models, the
// simulator or the service that moves any number it prints fails here.
func Example() {
	main()
	// Output:
	// == simulating 3 days of seasonal traffic on word-count (splitter=2, counter=3)
	// == caladrius service listening
	// == 1. prophet forecasts tomorrow's peak: 22.3 M tuples/min around 05:59
	// == 2. current plan at the peak: risk high (saturates at 21.6 M, bottleneck splitter)
	// == 3. proposal splitter=3: risk low, predicted CPU 4.7 cores
	// done: scale splitter 2 → 3 before 05:59 to ride out the peak (no deployments spent).
}
