package heron

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/topology"
	"caladrius/internal/workload"
)

// stepLoop is Run without replay: every tick stepped, then the event
// telemetry published, as Run did before steady-state replay.
func stepLoop(s *Simulation, d time.Duration) {
	end := s.elapsed + d
	for s.elapsed < end {
		s.step()
	}
	s.publishEvents()
}

// replayCase is a simulation and what is done to it: drive calls run
// for every stretch of simulated time, and may change the simulation
// between runs. A case whose state never recurs steps every window.
type replayCase struct {
	name  string
	build func(reg *instrument.Registry) (*Simulation, error)
	drive func(s *Simulation, run func(time.Duration)) error
	steps bool
}

// wordCountCase runs a word-count preset for minutes.
func wordCountCase(name string, opts WordCountOptions, minutes int) replayCase {
	return replayCase{
		name: name,
		build: func(reg *instrument.Registry) (*Simulation, error) {
			o := opts
			o.Metrics = reg
			return NewWordCount(o)
		},
		drive: func(_ *Simulation, run func(time.Duration)) error {
			run(time.Duration(minutes) * time.Minute)
			return nil
		},
	}
}

// diamondCase is a fan-out/fan-in diamond over all four groupings: the
// spout shuffles onto a slow heavy branch and fields-groups onto a fast
// light one; heavy replicates onto every join instance and light sends
// everything to join 0. At 6 M tuples/minute heavy saturates.
func diamondCase() replayCase {
	return replayCase{
		name: "diamond",
		build: func(reg *instrument.Registry) (*Simulation, error) {
			top, err := topology.NewBuilder("diamond").
				AddSpout("src", 4).
				AddBolt("heavy", 1).
				AddBolt("light", 3).
				AddBolt("join", 4).
				ConnectStream("to-heavy", "src", "heavy", topology.ShuffleGrouping).
				ConnectStream("to-light", "src", "light", topology.FieldsGrouping, "key").
				Connect("heavy", "join", topology.AllGrouping).
				Connect("light", "join", topology.GlobalGrouping).
				Build()
			if err != nil {
				return nil, err
			}
			return New(Config{
				Topology: top,
				Profiles: map[string]ComponentProfile{
					"src": {ServiceRate: 2e6, BytesPerTuple: 200, CPUPerTuple: 1e-7,
						Emits: map[string]EmitProfile{"to-heavy": {Alpha: 1}, "to-light": {Alpha: 1, Keys: ZipfKeys{N: 50, S: 1.3}}}},
					"heavy": {ServiceRate: 50_000, BytesPerTuple: 200, CPUPerTuple: 1e-5,
						Emits: map[string]EmitProfile{"default": {Alpha: 2}}},
					"light": {ServiceRate: 200_000, BytesPerTuple: 200, CPUPerTuple: 2e-6, FailureRate: 0.01,
						Emits: map[string]EmitProfile{"default": {Alpha: 0.5}}},
					"join": {ServiceRate: 2e6, BytesPerTuple: 100, CPUPerTuple: 2e-7},
				},
				SpoutRates: map[string]workload.RateSchedule{"src": workload.ConstantRate(6e6 / 60)},
				Metrics:    reg,
			})
		},
		drive: func(_ *Simulation, run func(time.Duration)) error {
			run(40 * time.Minute)
			return nil
		},
	}
}

// sweepNoise is experiments.DefaultSweep.NoiseStd, the σ of every
// simulation the figures run.
const sweepNoise = 0.015

// noisy is opts at service noise sigma, seeded.
func noisy(opts WordCountOptions, sigma float64) WordCountOptions {
	opts.ServiceNoiseStd, opts.NoiseSeed = sigma, 7
	return opts
}

// replayCases are the simulations TestRunMatchesStepLoop drives.
// SP, the splitter's saturation point, is 10.8 M tuples/minute an
// instance.
func replayCases() []replayCase {
	mid := func(name string, opts WordCountOptions, change func(*Simulation) error) replayCase {
		c := wordCountCase(name, opts, 0)
		c.drive = func(s *Simulation, run func(time.Duration)) error {
			run(20 * time.Minute)
			if err := change(s); err != nil {
				return err
			}
			run(20 * time.Minute)
			return nil
		}
		return c
	}
	counterBound := wordCountCase("counter-bound", WordCountOptions{SplitterP: 4, CounterP: 2, RatePerMinute: 40e6}, 40)
	counterBound.steps = true
	stepping := func(c replayCase) replayCase {
		c.steps = true
		return c
	}
	// Into saturation at 10m0.3s, and out of it again at 13m: the
	// backlog has drained by 18m, so the later windows start quiet and
	// are committed whole again.
	intoAndOut := func(e time.Duration) float64 {
		if e >= 10*time.Minute+300*time.Millisecond && e < 13*time.Minute {
			return 15e6 / 60
		}
		return 8e6 / 60
	}
	alpha := func(s *Simulation) error { return s.SetRouteAlpha("splitter", "counter", 9) }
	p2 := WordCountOptions{SplitterP: 2, CounterP: 3, RatePerMinute: 30e6}
	return []replayCase{
		wordCountCase("below-sp", WordCountOptions{RatePerMinute: 8e6}, 40),
		wordCountCase("at-sp", WordCountOptions{RatePerMinute: 10.8e6}, 40),
		wordCountCase("above-sp", WordCountOptions{RatePerMinute: 15e6}, 40),
		wordCountCase("below-sp-p4", WordCountOptions{SplitterP: 4, CounterP: 6, RatePerMinute: 40e6}, 40),
		wordCountCase("at-sp-p2", WordCountOptions{SplitterP: 2, CounterP: 3, RatePerMinute: 21.6e6}, 40),
		wordCountCase("above-sp-p3", WordCountOptions{SplitterP: 3, CounterP: 4, RatePerMinute: 45e6}, 40),
		wordCountCase("zipf", WordCountOptions{SplitterP: 2, CounterP: 6, RatePerMinute: 30e6, CounterKeys: ZipfKeys{N: 200, S: 1.2}}, 40),
		wordCountCase("tick-30ms", WordCountOptions{RatePerMinute: 8e6, Tick: 30 * time.Millisecond}, 40),
		wordCountCase("tick-1s", WordCountOptions{SplitterP: 3, CounterP: 4, RatePerMinute: 45e6, Tick: time.Second}, 40),
		// A saturated counter's queues never come back to a boundary
		// state within replayPeriods windows.
		counterBound,
		// The rate steps inside a saturated window: the pull is bounded
		// by the headroom either side, so only the offered guard tells
		// the windows apart.
		wordCountCase("step-in-saturation", WordCountOptions{Schedule: workload.StepRate(400e6/60, 500e6/60, 37*time.Minute+300*time.Millisecond)}, 45),
		// The backlog built above SP drains below it at the saturated
		// pull, until a tick pulls less than the recorded one.
		wordCountCase("backlog-drain", WordCountOptions{Schedule: workload.StepRate(15e6/60, 8e6/60, 10*time.Minute)}, 40),
		diamondCase(),
		mid("set-route-alpha", p2, alpha),
		mid("update", p2, func(s *Simulation) error {
			_, err := s.Update(map[string]int{"splitter": 3, "counter": 4}, false)
			return err
		}),
		// Service noise: windows in which every instance had slack are
		// committed whole; a saturated run steps every window.
		wordCountCase("noisy-below-sp", noisy(WordCountOptions{RatePerMinute: 8e6}, sweepNoise), 40),
		wordCountCase("noisy-below-sp-p4", noisy(WordCountOptions{SplitterP: 4, CounterP: 6, RatePerMinute: 40e6}, sweepNoise), 40),
		// 0.95 SP: some windows hold a tick whose splitter capacity
		// falls short, so they apply the covered ticks from the record
		// and step the first uncovered one; the rest come from the memo.
		wordCountCase("noisy-near-sp", noisy(WordCountOptions{RatePerMinute: 10.3e6}, sweepNoise), 40),
		wordCountCase("noisy-wide", noisy(WordCountOptions{RatePerMinute: 9e6}, 0.05), 40),
		stepping(wordCountCase("noisy-at-sp", noisy(WordCountOptions{RatePerMinute: 10.8e6}, sweepNoise), 40)),
		stepping(wordCountCase("noisy-above-sp", noisy(WordCountOptions{RatePerMinute: 15e6}, sweepNoise), 40)),
		wordCountCase("noisy-into-and-out-of-saturation", noisy(WordCountOptions{Schedule: intoAndOut}, sweepNoise), 45),
		mid("noisy-set-route-alpha", noisy(WordCountOptions{SplitterP: 2, CounterP: 3, RatePerMinute: 15e6}, sweepNoise), alpha),
	}
}

// TestRunMatchesStepLoop holds Run, which replays steady-state windows,
// to the raw step loop: the same snapshot bytes, Totals, Snapshot and
// caladrius_sim_* instruments, over simulations below, at and above
// saturation, across a rate step, through SetRouteAlpha and Update,
// with and without service noise, and with Run called in whole
// minutes, 90 s and 17 s. A case that does not step every window ends
// with a recorded window armed, or a slack memo; a noisy one also ends
// with no instance busy, so a memo left from before a saturated
// stretch does not count.
func TestRunMatchesStepLoop(t *testing.T) {
	chunks := []time.Duration{0, time.Minute, 90 * time.Second, 17 * time.Second}
	for _, c := range replayCases() {
		for _, chunk := range chunks {
			t.Run(fmt.Sprintf("%s/chunk=%s", c.name, chunk), func(t *testing.T) {
				got, err := runMatchesStepLoop(c, chunk)
				if err != nil {
					t.Fatal(err)
				}
				armed := got.replay.next != nil || got.slack.memo != nil
				if got.noise != nil && slices.ContainsFunc(got.instances, (*instanceState).busy) {
					armed = false
				}
				if chunk == 0 && armed == c.steps {
					t.Errorf("replay armed at the end: %t, want %t", armed, !c.steps)
				}
			})
		}
	}
}

// runMatchesStepLoop drives the case once through Run and once through
// stepLoop, each stretch cut into chunks (0: one call), and returns the
// Run simulation, or an error naming the first thing that differs.
func runMatchesStepLoop(c replayCase, chunk time.Duration) (*Simulation, error) {
	var sims [2]*Simulation
	var regs [2]*instrument.Registry
	for i, loop := range []func(*Simulation, time.Duration){
		func(s *Simulation, d time.Duration) {
			if err := s.Run(d); err != nil {
				panic(err)
			}
		},
		stepLoop,
	} {
		regs[i] = instrument.NewRegistry()
		s, err := c.build(regs[i])
		if err != nil {
			return nil, err
		}
		err = c.drive(s, func(d time.Duration) {
			for d > 0 {
				n := d
				if chunk > 0 && chunk < d {
					n = chunk
				}
				loop(s, n)
				d -= n
			}
		})
		if err != nil {
			return nil, err
		}
		sims[i] = s
	}
	run, step := sims[0], sims[1]
	var snaps [2]bytes.Buffer
	for i, s := range sims {
		if err := s.DB().WriteSnapshot(&snaps[i]); err != nil {
			return nil, err
		}
	}
	switch {
	case !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()):
		return nil, fmt.Errorf("snapshots differ: Run wrote %d bytes, the step loop %d", snaps[0].Len(), snaps[1].Len())
	case !reflect.DeepEqual(run.Totals(), step.Totals()):
		return nil, fmt.Errorf("Totals differ:\nRun  %+v\nstep %+v", run.Totals(), step.Totals())
	case !reflect.DeepEqual(run.Snapshot(), step.Snapshot()):
		return nil, fmt.Errorf("Snapshot differs:\nRun  %+v\nstep %+v", run.Snapshot(), step.Snapshot())
	case !reflect.DeepEqual(regs[0].Snapshot(), regs[1].Snapshot()):
		return nil, fmt.Errorf("caladrius_sim_* instruments differ:\nRun  %+v\nstep %+v", regs[0].Snapshot(), regs[1].Snapshot())
	}
	return run, nil
}

// FuzzRunMatchesStep drives word-count from a fuzzed configuration: a
// rate that steps between two levels either side of SP at a fuzzed
// instant, parallelisms, a tick that divides the minute, a Run chunk of
// up to 5 minutes (0: one Run), and service noise of σ up to 0.5 from a
// fuzzed seed. Run must match the raw step loop on every compared
// output.
func FuzzRunMatchesStep(f *testing.F) {
	f.Add(uint8(1), uint8(3), 8.0, 15.0, int64(300_000), uint8(0), uint16(0), 0.0, int64(0))
	f.Add(uint8(3), uint8(4), 45.0, 45.0, int64(0), uint8(1), uint16(600), 0.0, int64(0))
	f.Add(uint8(1), uint8(3), 400.0, 500.0, int64(600_300), uint8(1), uint16(0), 0.0, int64(0))
	f.Add(uint8(0), uint8(2), 18.0, 8.0, int64(180_000), uint8(1), uint16(0), 0.0, int64(0))
	// Noisy: below SP throughout, into saturation, out of it, and near
	// SP at a wide σ.
	f.Add(uint8(0), uint8(2), 8.0, 8.0, int64(0), uint8(1), uint16(0), 0.015, int64(1))
	f.Add(uint8(1), uint8(3), 15.0, 40.0, int64(300_000), uint8(0), uint16(170), 0.015, int64(2))
	f.Add(uint8(0), uint8(2), 15.0, 6.0, int64(240_000), uint8(1), uint16(900), 0.015, int64(3))
	f.Add(uint8(0), uint8(2), 9.0, 10.3, int64(420_000), uint8(3), uint16(0), 0.05, int64(4))
	ticks := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, time.Second, 30 * time.Millisecond}
	f.Fuzz(func(t *testing.T, splitter, counter uint8, before, after float64, stepMs int64, tick uint8, chunk100ms uint16, sigma float64, seed int64) {
		if !(before >= 0 && before <= 1e3 && after >= 0 && after <= 1e3) {
			t.Skip("rates outside 0–1000 M tuples/minute")
		}
		if !(sigma >= 0 && sigma <= 0.5) {
			t.Skip("service noise outside 0–0.5")
		}
		c := wordCountCase("fuzz", WordCountOptions{
			SplitterP:       1 + int(splitter%4),
			CounterP:        1 + int(counter%4),
			Schedule:        workload.StepRate(before*1e6/60, after*1e6/60, time.Duration(stepMs%(12*60_000))*time.Millisecond),
			Tick:            ticks[int(tick)%len(ticks)],
			ServiceNoiseStd: sigma,
			NoiseSeed:       seed,
		}, 12)
		chunk := time.Duration(chunk100ms%3000) * 100 * time.Millisecond
		if _, err := runMatchesStepLoop(c, chunk); err != nil {
			t.Fatal(err)
		}
	})
}
