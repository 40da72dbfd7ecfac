// Command heronsim runs the Heron-like simulator standalone: it deploys
// the paper's word-count topology with the given parallelisms and
// offered rate, simulates it to steady state, and prints the per-minute
// component metrics as a table or CSV. A fault plan (-faults) replays a
// deterministic chaos schedule against the run; the fault trace goes to
// stderr so piped CSV output stays clean. The plan takes simulator
// faults only: a metrics fault (metrics-outage, -gap, -latency) is an
// error, since the table is read straight from the simulator's store.
//
// Usage:
//
//	heronsim [-rate 15e6] [-spout 8] [-splitter 1] [-counter 3]
//	         [-minutes 10] [-csv] [-snapshot] [-faults plan.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"caladrius/internal/chaos"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/workload"
)

// options carries everything run needs, so tests can drive it without
// the flag package or process-global streams.
type options struct {
	rate       float64
	tracePath  string
	faultsPath string
	spoutP     int
	splitterP  int
	counterP   int
	containers int
	minutes    int
	csv        bool
	snapshot   bool
	save       string
}

func main() {
	var o options
	flag.Float64Var(&o.rate, "rate", 15e6, "offered source rate (tuples/minute); ignored with -trace")
	flag.StringVar(&o.tracePath, "trace", "", "CSV traffic trace (elapsed,tuples_per_minute) to replay instead of a constant rate")
	flag.StringVar(&o.faultsPath, "faults", "", "JSON fault plan (chaos schedule, simulator faults only) to inject into the run")
	flag.IntVar(&o.spoutP, "spout", 8, "spout parallelism")
	flag.IntVar(&o.splitterP, "splitter", 1, "splitter parallelism")
	flag.IntVar(&o.counterP, "counter", 3, "counter parallelism")
	flag.IntVar(&o.containers, "containers", 2, "containers for round-robin packing")
	flag.IntVar(&o.minutes, "minutes", 10, "simulated minutes")
	flag.BoolVar(&o.csv, "csv", false, "emit CSV instead of a table")
	flag.BoolVar(&o.snapshot, "snapshot", false, "also print final instance state")
	flag.StringVar(&o.save, "save", "", "write the metrics database to this snapshot file (loadable by caladrius -metrics)")
	flag.Parse()
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "heronsim:", err)
		os.Exit(1)
	}
}

func run(o options, out, errOut io.Writer) error {
	opts := heron.WordCountOptions{
		SpoutP:        o.spoutP,
		SplitterP:     o.splitterP,
		CounterP:      o.counterP,
		Containers:    o.containers,
		RatePerMinute: o.rate,
	}
	if o.tracePath != "" {
		f, err := os.Open(o.tracePath)
		if err != nil {
			return err
		}
		trace, err := workload.ParseTraceCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		opts.Schedule = trace.Schedule()
	}
	// The simulation is built before it is deployed so a fault plan can
	// be armed on it first.
	sim, err := heron.NewWordCount(opts)
	if err != nil {
		return err
	}
	var inj *chaos.Injector
	if o.faultsPath != "" {
		data, err := os.ReadFile(o.faultsPath)
		if err != nil {
			return err
		}
		plan, err := chaos.ParsePlan(data)
		if err != nil {
			return err
		}
		if m := plan.MetricsFaults(); len(m) > 0 {
			return fmt.Errorf("the fault plan's metrics faults %v cannot fire: "+
				"heronsim reads the simulator's own store, with no metrics provider between", m)
		}
		sub := sim.Substrate()
		if inj, err = chaos.NewInjector(plan, sub.Topology, sub.Plan); err != nil {
			return err
		}
		sim.WithFaultInjector(inj)
	}
	d, err := metrics.Deploy(sim, 0, o.minutes)
	if err != nil {
		return err
	}
	if inj != nil {
		if trace := inj.Trace(); trace != "" {
			fmt.Fprint(errOut, trace)
		}
	}

	if o.csv {
		fmt.Fprintln(out, "minute,component,source,arrival,execute,emit,backpressure_ms,cpu_cores")
	} else {
		fmt.Fprintf(out, "%-7s %-10s %14s %14s %14s %14s %10s %9s\n",
			"minute", "component", "source", "arrival", "execute", "emit", "bp_ms", "cpu")
	}
	for _, c := range d.Topology.Components() {
		ws, err := d.Provider.ComponentWindows(d.Topology.Name(), c.Name, d.Start, d.AsOf)
		if err != nil {
			return err
		}
		for i, w := range ws {
			if o.csv {
				fmt.Fprintf(out, "%d,%s,%.0f,%.0f,%.0f,%.0f,%.0f,%.3f\n",
					i, c.Name, w.Source, w.Arrival, w.Execute, w.Emit, w.BackpressureMs, w.CPULoad)
			} else {
				fmt.Fprintf(out, "%-7d %-10s %14.0f %14.0f %14.0f %14.0f %10.0f %9.3f\n",
					i, c.Name, w.Source, w.Arrival, w.Execute, w.Emit, w.BackpressureMs, w.CPULoad)
			}
		}
	}
	if o.snapshot {
		fmt.Fprintln(out, "\nfinal instance state:")
		for _, s := range sim.Snapshot() {
			fmt.Fprintf(out, "  %-14s container=%d queue=%.0f tuples pending=%.1f MB backlog=%.0f bp=%v\n",
				s.ID, s.Container, s.QueueTuples, s.PendingBytes/1e6, s.Backlog, s.InBackpressure)
		}
	}
	if o.save != "" {
		if err := d.DB.SaveFile(o.save); err != nil {
			return err
		}
		fmt.Fprintf(errOut, "metrics snapshot written to %s\n", o.save)
	}
	return nil
}
