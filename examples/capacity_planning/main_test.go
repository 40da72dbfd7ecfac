package main

// Example pins the program's output: a change to the models, the
// simulator or the service that moves any number it prints fails here.
func Example() {
	main()
	// Output:
	// == replaying the recorded daily profile (peak 30 M tuples/min) for 3 days through word-count (splitter=6, counter=3)
	// == backtest ranking on the topology's own history (last 20% held out):
	//    holtwinters  MAPE   0.8%  interval coverage   0%
	//    prophet      MAPE   1.6%  interval coverage  66%
	//    summary      MAPE  25.9%  interval coverage  80%
	// == holtwinters forecasts tomorrow's peak at 29.9 M tuples/min (upper band)
	//    (splitter never saturated in the trace; keeping its current parallelism 6)
	// == plan for the peak: splitter=6 counter=5 → risk low, saturates at 44.5 M, 6.3 cores
	// done: capacity plan derived entirely from the recorded trace — no live deployments.
}
