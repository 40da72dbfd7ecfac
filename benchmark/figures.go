package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// figures-batch runs the shipped figures binary, the paper
// reproduction itself, as a child process: sequentially (-parallel 1,
// the single-threaded baseline) and at default parallelism. Its
// "request" is one whole suite run, and its check is that every CSV is
// byte-identical to the committed results/.

// experimentNames are the names figures -only accepts.
var experimentNames = []string{
	"fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "traffic", "dhalion",
	"ablation-watermarks", "ablation-attribution", "ablation-noise", "ablation-schedulers",
}

// figuresLimitMS is the wall-time limit of one suite run.
const figuresLimitMS = 10_000

// figuresRun is one execution of the figures binary.
type figuresRun struct {
	wallS, cpuS float64
	rssMB       float64
	err         error // exit status or CSV mismatch
}

// runFiguresOnce executes figures with args, writing CSVs into a fresh
// directory under dir, and compares the files in want (all of results/
// when want is nil) byte for byte.
func runFiguresOnce(bin, resultsDir, dir string, want []string, args ...string) figuresRun {
	out, err := os.MkdirTemp(dir, "csv-")
	if err != nil {
		return figuresRun{err: err}
	}
	defer os.RemoveAll(out)
	cmd := exec.Command(bin, append(args, "-out", out)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return figuresRun{err: err}
	}
	// The issue asked for ru_maxrss, but Linux carries the high-water
	// mark of the image that called exec into the child's ru_maxrss: it
	// read 17 MB from a small parent and 347 MB from a large one. VmHWM
	// belongs to the new image alone, so it is polled while the child
	// runs and the last reading before exit is kept.
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	status := "/proc/" + strconv.Itoa(cmd.Process.Pid) + "/status"
	var peakKB uint64
	for running := true; running; {
		if b, err := os.ReadFile(status); err == nil {
			if kb, err := parseVmHWMkB(b); err == nil && kb > peakKB {
				peakKB = kb
			}
		}
		select {
		case err = <-waited:
			running = false
		case <-time.After(rssPollInterval):
		}
	}
	r := figuresRun{wallS: time.Since(t0).Seconds(), rssMB: float64(peakKB) / 1024}
	if err != nil {
		r.err = fmt.Errorf("figures %v: %w: %s", args, err, stderr.String())
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	r.err = compareCSVs(resultsDir, out, want)
	return r
}

// rssPollInterval is how often a running figures child's VmHWM is read.
const rssPollInterval = 20 * time.Millisecond

// compareCSVs checks that got holds exactly the files named in want
// (every *.csv of the reference directory when nil), each identical to
// the reference.
func compareCSVs(reference, got string, want []string) error {
	if want == nil {
		paths, err := filepath.Glob(filepath.Join(reference, "*.csv"))
		if err != nil {
			return err
		}
		for _, p := range paths {
			want = append(want, filepath.Base(p))
		}
	}
	if len(want) == 0 {
		return fmt.Errorf("no reference CSVs in %s", reference)
	}
	produced, err := filepath.Glob(filepath.Join(got, "*.csv"))
	if err != nil {
		return err
	}
	if len(produced) != len(want) {
		return fmt.Errorf("figures wrote %d CSVs, want %d", len(produced), len(want))
	}
	sort.Strings(want)
	for _, name := range want {
		ref, err := os.ReadFile(filepath.Join(reference, name))
		if err != nil {
			return err
		}
		out, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(ref, out) {
			return fmt.Errorf("%s differs from %s", name, filepath.Join(reference, name))
		}
	}
	return nil
}

// figuresOutcome is everything a figures-batch run measured.
type figuresOutcome struct {
	warm, seq, par []figuresRun
	// perExperiment holds one -only run per experiment (traced run).
	perExperiment map[string]figuresRun
}

func (o *figuresOutcome) all() []figuresRun {
	runs := append(append(append([]figuresRun(nil), o.warm...), o.seq...), o.par...)
	for _, r := range o.perExperiment {
		runs = append(runs, r)
	}
	return runs
}

// runFigures executes the batch workload. An untraced run spends two
// thirds of seconds on sequential suites and one third on suites at
// default parallelism, after setupRepeats warm-up suites. A traced run
// times each experiment on its own and two suites of each kind.
func runFigures(bin, resultsDir, dir string, seconds int, traced bool) *figuresOutcome {
	o := &figuresOutcome{}
	suite := func(args ...string) figuresRun { return runFiguresOnce(bin, resultsDir, dir, nil, args...) }
	warmups, minSeq, minPar := setupRepeats, 3, 2
	seqFor, parFor := phaseSplit(seconds)
	if traced {
		warmups, minSeq, minPar, seqFor, parFor = 1, 2, 2, 0, 0
		o.perExperiment = map[string]figuresRun{}
		for _, name := range experimentNames {
			o.perExperiment[name] = runFiguresOnce(bin, resultsDir, dir, []string{name + ".csv"}, "-parallel", "1", "-only", name)
		}
	}
	for i := 0; i < warmups; i++ {
		o.warm = append(o.warm, suite("-parallel", "1"))
	}
	for t0 := time.Now(); len(o.seq) < minSeq || time.Since(t0) < seqFor; {
		o.seq = append(o.seq, suite("-parallel", "1"))
	}
	for t0 := time.Now(); len(o.par) < minPar || time.Since(t0) < parFor; {
		o.par = append(o.par, suite())
	}
	return o
}
