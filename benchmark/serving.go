package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// A serving run boots setupRepeats daemons, one after another, and
// prefills each; setup_s is the median of the three. Each is then
// driven closed-loop for a third of the closed-loop time and
// capacity_rps is the median of the three, because throughput differs
// more between daemon processes (±10 % here) than within one (±3 %).
// The second and third daemons are killed; the first idles meanwhile
// and then serves the paced phase.
//
// The paced phase starts at a fixed offset from the first daemon's
// first healthy response. The daemon's scraper, resolver and profiler
// tick every 5, 15 and 10 s from (within a millisecond of) that moment,
// and one resolver pass over a full audit ring costs 2.6 s of CPU, so
// a window left to chance holds a whole pass, part of one or none and
// CPU per request moves by a third. At offset 12 s a 10 s window holds
// the scrapes at 15 and 20 s, the profiler capture at 20 s and the
// whole resolver pass that starts at 15 s.
const (
	pacedOffset = 12 * time.Second
	// tickCycle is the least common multiple of the three tickers; a
	// late set-up moves the paced phase by whole cycles.
	tickCycle = 30 * time.Second
	// setupRepeats is how many daemons a run boots and prefills.
	setupRepeats = 3
	// closedClients is the closed loop's client count. With 2 clients
	// throughput followed thread wake-up latency between the two vCPUs
	// (5,900–7,800/s across daemons); with 8 both cores stay busy.
	closedClients = 8
)

// phaseSplit divides the run's measuring time: two thirds paced, one
// third closed loop.
func phaseSplit(seconds int) (paced, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	closed = total / 3
	return total - closed, closed
}

// setup boots a daemon and prefills it, returning the prefill's
// seconds; d.bootS plus that is one setup_s sample.
func setup(bin, history, dir string, prefill []request) (*daemon, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d, err := startDaemon(bin, history, dir)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	ph := runClosed(d.url, prefill, closedClients, 0)
	prefillS := time.Since(t0).Seconds()
	for i := range ph.samples {
		if err := validate(&ph.samples[i]); err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("prefill request %s %s: %w", ph.samples[i].req.Op, ph.samples[i].req.Body, err)
		}
	}
	return d, prefillS, nil
}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// servingOutcome is everything a serving run measured over the wire.
type servingOutcome struct {
	setupS          []float64
	bootS, prefillS float64
	closed          []phase // one per daemon
	paced           phase
	pacedCPU        float64 // daemon CPU seconds over the paced phase
	rssMB           float64
	sched0, sched1  schedWire
	serial          phase   // traced run only: one connection, no queueing
	idleCPUPct      float64 // daemon CPU over the request-free gap before the paced phase
	oracleCompared  int
	checkErrs       []error // oracle, linearity, shutdown
	historyStats    historyStats
}

func fetchSched(w *worker) (schedWire, error) {
	var sw schedWire
	status, body, err := w.roundTrip("GET", "/api/v1/sched", "", "")
	if err != nil {
		return sw, err
	}
	if status != 200 {
		return sw, fmt.Errorf("sched: status %d", status)
	}
	return sw, decode(body, &sw)
}

// runServing executes one serving workload against subprocess daemons.
// dir is the run's scratch directory. A traced run (inGap non-nil) sets
// up one daemon, probes it serially after its closed loop, and calls
// inGap — the in-process layer timings — while the daemon idles before
// the paced phase, metering the daemon's CPU over that gap. The paced
// phase is the same either way.
func runServing(w workload, seed int64, seconds int, bin, dir string, inGap func() error) (*servingOutcome, error) {
	traced := inGap != nil
	out := &servingOutcome{}
	// The generator's own collector would take its one P for
	// milliseconds at a time. Each phase starts from a collected heap
	// and allocates far less than the memory limit set in main, so the
	// phases run without collections.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	historyPath := filepath.Join(dir, "history.json")
	var err error
	if out.historyStats, err = writeHistory(historyPath, seed, traced); err != nil {
		return nil, fmt.Errorf("generate history: %w", err)
	}
	prefill := prefillSchedule(seed)
	pacedFor, closedFor := phaseSplit(seconds)
	pacedReqs := pacedSchedule(w, seed, pacedFor)
	ring := closedRing(w, seed, streamClosed, 4096)

	// The first daemon is set up, measured closed-loop and kept; the
	// others are set up, measured and killed while it idles.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var d *daemon
	var probe *worker // one connection to d for the benchmark's own questions
	defer func() {
		if d != nil {
			probe.client.CloseIdleConnections()
			d.kill()
		}
	}()
	for i := 0; i < repeats; i++ {
		di, prefillS, err := setup(bin, historyPath, filepath.Join(dir, fmt.Sprintf("daemon-%d", i)), prefill)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, di.bootS+prefillS)
		if i == 0 {
			d, probe = di, newWorkers(di.url, 1)[0]
			out.bootS, out.prefillS = di.bootS, prefillS
			if out.sched0, err = fetchSched(probe); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		out.closed = append(out.closed, runClosed(di.url, ring, closedClients, closedFor/setupRepeats))
		if i > 0 {
			di.kill()
		}
	}
	if traced {
		out.serial = runClosed(d.url, ring, 1, serialProbeFor)
	}
	idleFrom := time.Now()
	idleCPU0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if traced {
		debug.SetGCPercent(100)
		err := inGap()
		debug.SetGCPercent(-1)
		if err != nil {
			return nil, err
		}
	}

	offset := pacedOffset
	for time.Since(d.healthy) > offset-phaseGap {
		offset += tickCycle
	}
	runtime.GC()
	sleepUntil(d.healthy.Add(offset - phaseGap))
	idleCPU1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out.idleCPUPct = 100 * (idleCPU1 - idleCPU0) / time.Since(idleFrom).Seconds()
	sleepUntil(d.healthy.Add(offset))
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out.paced = runPaced(d.url, pacedReqs)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out.pacedCPU = cpu1 - cpu0

	if out.sched1, err = fetchSched(probe); err != nil {
		return nil, err
	}
	if err := checkLinearity(probe); err != nil {
		out.checkErrs = append(out.checkErrs, err)
	}
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	// A traced run also checks the shutdown path (final resolver pass,
	// history snapshot, exit status); an untraced run has no time for it.
	if traced {
		probe.client.CloseIdleConnections()
		err = d.stop()
		d = nil
		if err != nil {
			out.checkErrs = append(out.checkErrs, err)
		}
	}

	all := append([]sample(nil), out.paced.samples...)
	for _, ph := range out.closed {
		all = append(all, ph.samples...)
	}
	if out.oracleCompared, err = checkOracle(all); err != nil {
		out.checkErrs = append(out.checkErrs, err)
	}
	if out.oracleCompared == 0 && w.Name == servingWorkloads[0].Name {
		out.checkErrs = append(out.checkErrs, errors.New("oracle compared no answers"))
	}
	return out, nil
}

const (
	// serialProbeFor is how long a traced run sends requests one at a
	// time.
	serialProbeFor = time.Second
	// phaseGap is the quiet stretch before the paced phase; a set-up
	// that ends later than that moves the phase by a tick cycle.
	phaseGap = 200 * time.Millisecond
)
