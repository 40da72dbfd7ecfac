// Command benchmark is Caladrius's one benchmark. It drives the
// shipped caladrius and figures binaries as child processes through
// four named workloads, checks every answer, and reports end-to-end
// metrics; a separate traced run reports per-layer metrics. See
// README.md beside this file.
//
// Usage (run.sh builds the binaries and calls this from the repo root):
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is its JSON result
//	benchmark [-seed N] [-repeat R]                              all workloads, untraced R times and traced once; writes out/latest.json
//	benchmark compare A.json B.json                              compare two latest.json files against the bounds
//	benchmark manifest                                           print BENCHMARK.json as this code defines it
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// Paths, relative to the repository root run.sh changes into.
const (
	outDir      = "benchmark/out"
	binDir      = outDir + "/bin"
	resultsDir  = "results"
	latestFile  = outDir + "/latest.json"
	traceFile   = outDir + "/trace.json"
	daemonBin   = binDir + "/caladrius"
	figuresBin  = binDir + "/figures"
	defaultSecs = 15
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a run failed validation")

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: benchmark compare A.json B.json")
		}
		return compareFiles(args[1], args[2], os.Stdout)
	}
	if len(args) == 1 && args[0] == "manifest" {
		data, err := manifestJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload and print its JSON result (default: run all)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Int("seconds", defaultSecs, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	repeat := fs.Int("repeat", 1, "suite mode: untraced repetitions per workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 1 || fs.NArg() > 0 {
		return errors.New("bad arguments (see -h)")
	}
	for _, bin := range []string{daemonBin, figuresBin} {
		if _, err := os.Stat(bin); err != nil {
			return fmt.Errorf("%w (run benchmark/run.sh from the repository root: it builds the binaries)", err)
		}
	}
	// The generator and the in-process layer timings run on one P; the
	// child processes keep the machine's default.
	runtime.GOMAXPROCS(1)
	// Wire phases switch the collector off (see runServing); this is the
	// ceiling that switches it back on if a phase allocates without end.
	debug.SetMemoryLimit(4 << 30)

	if *workloadName == "" {
		return runSuite(*seed, *seconds, *repeat)
	}
	rep, _, err := runOne(*workloadName, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	var text strings.Builder
	rep.print(&text)
	fmt.Print(text.String())
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		return errIncorrect
	}
	return nil
}

// runOne executes one workload once in a scratch directory of its own.
func runOne(name string, seed int64, seconds int, traced bool) (runReport, *layerResult, error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return runReport{}, nil, err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return runReport{}, nil, err
	}
	var layers *layerResult
	timeLayers := func() (err error) {
		if layers, err = runLayers(seed); err != nil {
			return fmt.Errorf("traced layers: %w", err)
		}
		return nil
	}
	if name == figuresWorkload {
		if traced {
			if err := timeLayers(); err != nil {
				return runReport{}, nil, err
			}
		}
		return reportFigures(seed, traced, runFigures(figuresBin, resultsDir, dir, seconds, traced), layers), layers, nil
	}
	w, ok := workloadByName(name)
	if !ok {
		return runReport{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	if !traced {
		timeLayers = nil
	}
	o, err := runServing(w, seed, seconds, daemonBin, dir, timeLayers)
	if err != nil {
		return runReport{}, nil, err
	}
	return reportServing(w, seed, traced, o, layers), layers, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range servingWorkloads {
		names = append(names, w.Name)
	}
	return append(names, figuresWorkload)
}
