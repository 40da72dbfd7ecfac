package main

// Example pins the program's output: a change to the models, the
// simulator or the service that moves any number it prints fails here.
func Example() {
	main()
	// Output:
	// == 1. deploying word-count (spout=8, splitter=2, counter=3) at 18 M tuples/min
	// == 2. calibrating component models from 15 minutes of metrics
	//    spout    α=1.000  per-instance SP=∞  ψ=5.00e-09
	//    splitter α=7.635  per-instance SP=∞  ψ=1.04e-07
	//    counter  α=0.000  per-instance SP=∞  ψ=1.33e-08
	// == 2b. profiling saturation: one run per bolt, each as the bottleneck
	//    spout    per-instance SP now ∞
	//    splitter per-instance SP now 10.8 M/min
	//    counter  per-instance SP now 68.4 M/min
	// == 3. dry-run: what happens at 36.0 M/min?
	//    current plan: backpressure risk high (topology saturates at 21.6 M/min, bottleneck splitter)
	//    suggested plan: splitter=4 counter=5
	//    suggested plan risk: low, predicted output 274.9 M/min, total CPU 7.6 cores
	// == 4. verifying the suggestion on the simulator
	//    measured sink throughput 274.9 M/min (predicted 274.9 M/min), backpressure 0 ms/min
	// done: the plan absorbed the doubled traffic on the first try.
}
