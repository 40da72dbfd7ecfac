package heron

// Steady-state replay. Without service noise and without a fault
// injector a simulation is a deterministic function of its state at a
// window boundary and of what its spouts are offered, and step reads a
// spout's external backlog only through the tick's pull,
// min(backlog + offered, min(capacity, headroom)). So once a boundary
// state (backlog excluded) recurs, the windows that followed it can be
// committed again instead of stepped, as long as every tick offers the
// recorded load and pulls the recorded tuples. step stays the only
// definition of the semantics: replay copies windows step recorded, and
// recomputes nothing but the backlog, through step's own expressions.

import (
	"bytes"
	"encoding/binary"
	"math"

	"caladrius/internal/tsdb"
)

const (
	// replayPeriods is how many earlier boundary states a boundary is
	// compared with: the longest period, in windows, replay finds.
	replayPeriods = 16
	// replayBudget bounds a period's per-tick records, in float64s
	// (2 MiB). A longer period is stepped.
	replayBudget = 1 << 18
	// noPull is the limit recorded for a spout tick that pulled
	// nothing: the spout was offline or the topology in backpressure.
	noPull = -1.0
)

// spoutTick is one spout's tick as step ran it: the load offered, the
// bound on the pull (noPull when it did not pull) and the tuples pulled.
type spoutTick struct{ offered, limit, pull float64 }

// tickTally is one tick's fractional event-telemetry increments, kept
// per tick so that a replay adds them in step's order.
type tickTally struct{ processed, dropped float64 }

// recordedWindow is one stepped metrics window: the boundary states it
// started and ended in, each tick at the spouts, the tick tallies, and
// what the window wrote.
type recordedWindow struct {
	start, end          []byte      // boundary states (appendState)
	spouts              []spoutTick // tick-major: every spout of tick 0, then of tick 1, …
	ticks               []tickTally
	bpOn, bpOff, active float64
	batch               []tsdb.BatchSample // the flushed samples, restamped on replay
	backlogAt           []int              // batch index of each spout's backlog gauge
	totals              []cumTotals        // each instance's window totals
}

// replayer is a Simulation's replay state. It stays empty while the
// simulation has service noise or a fault injector.
type replayer struct {
	seen    [replayPeriods][]byte // the last boundary states, the n-th at seen[n%replayPeriods]
	n       int
	key     []byte // the current boundary state
	period  int    // windows to record once a state recurred
	windows []*recordedWindow
	rec     *recordedWindow // the window step is recording, or nil
	next    *recordedWindow // the recorded window that starts in the current state, or nil
	backlog []float64       // spout backlogs while a window is checked
}

// appendState appends the boundary state replay compares: each
// instance's queue, in-flight arrivals, offline ticks and backpressure
// flag, and whether each of its routes has emitted.
func (s *Simulation) appendState(b []byte) []byte {
	for _, inst := range s.instances {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(inst.queueTuples))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(inst.arrivedTick))
		b = binary.LittleEndian.AppendUint64(b, uint64(inst.downTicks))
		b = append(b, flag(inst.bp))
		for ri := range inst.routes {
			b = append(b, flag(inst.routes[ri].emitSeen))
		}
	}
	return b
}

// restoreState sets the state appendState wrote into b.
func (s *Simulation) restoreState(b []byte) {
	for _, inst := range s.instances {
		inst.queueTuples = math.Float64frombits(binary.LittleEndian.Uint64(b))
		inst.arrivedTick = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		inst.downTicks = int(binary.LittleEndian.Uint64(b[16:]))
		inst.bp = b[24] == 1
		b = b[25:]
		for ri := range inst.routes {
			inst.routes[ri].emitSeen = b[ri] == 1
		}
		b = b[len(inst.routes):]
	}
}

func flag(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// atBoundary runs at every window boundary. It closes the window being
// recorded and looks up the recorded window that starts in this state;
// failing that, when this state was also the state one to
// replayPeriods boundaries ago, it starts recording that many windows.
func (s *Simulation) atBoundary() {
	if s.noise != nil || s.injector != nil {
		return
	}
	r := &s.replay
	r.key = s.appendState(r.key[:0])
	if w := r.rec; w != nil {
		w.end = bytes.Clone(r.key)
		r.windows, r.rec = append(r.windows, w), nil
	}
	r.next = nil
	if len(r.windows) == r.period { // not recording
		for _, w := range r.windows {
			if bytes.Equal(w.start, r.key) {
				r.next = w
				break
			}
		}
		if r.next == nil {
			if p := r.recurrence(); p > 0 && p*s.windowRecordSize() <= replayBudget {
				r.windows, r.period = nil, p
			}
		}
	}
	if len(r.windows) < r.period {
		r.rec = &recordedWindow{start: bytes.Clone(r.key)}
	}
	i := r.n % replayPeriods
	r.seen[i] = append(r.seen[i][:0], r.key...)
	r.n++
}

// recurrence returns how many boundaries ago the current state was last
// seen, or 0 when it is not among the last replayPeriods.
func (r *replayer) recurrence() int {
	for p := 1; p <= min(r.n, replayPeriods); p++ {
		if bytes.Equal(r.seen[(r.n-p)%replayPeriods], r.key) {
			return p
		}
	}
	return 0
}

// windowRecordSize is how many float64s one window's per-tick records
// hold: two a tick and three a spout tick.
func (s *Simulation) windowRecordSize() int {
	per := 2
	for _, inst := range s.instances {
		if inst.isSpout {
			per += 3
		}
	}
	return int(metricsInterval/s.cfg.Tick) * per
}

// replayWindow commits w as the window starting now if its guards pass
// (replays). Otherwise it drops the recorded windows, so that the search
// for a recurring state starts over, and reports false: the caller
// steps the window.
func (s *Simulation) replayWindow(w *recordedWindow) bool {
	r := &s.replay
	if !s.replays(w) {
		r.windows, r.period, r.next = nil, 0, nil
		return false
	}
	tally := &s.tally
	for _, t := range w.ticks {
		tally.processed += t.processed
		tally.dropped += t.dropped
	}
	tally.ticks += float64(len(w.ticks))
	tally.bpOn += w.bpOn
	tally.bpOff += w.bpOff
	tally.active = w.active
	s.restoreState(w.end)
	j := 0
	for _, inst := range s.instances {
		if inst.isSpout {
			inst.backlog = r.backlog[j]
			j++
		}
	}
	stamp := DefaultStart.Add(s.windowEnd)
	s.batch = append(s.batch[:0], w.batch...)
	for i := range s.batch {
		s.batch[i].T = stamp
	}
	for j, i := range w.backlogAt {
		s.batch[i].V = r.backlog[j]
	}
	s.db.AppendBatch(s.batch)
	for i, inst := range s.instances {
		inst.cum.add(&w.totals[i])
	}
	s.elapsed += metricsInterval
	s.windowEnd += metricsInterval
	s.atBoundary()
	return true
}

// replays reports whether, tick by tick, every spout is offered the
// load w recorded and pulls the tuples w recorded, leaving each spout's
// backlog at the window's end in r.backlog. Then the rest of the window
// is w's, bit for bit: step reads the backlog only through the pull.
func (s *Simulation) replays(w *recordedWindow) bool {
	r := &s.replay
	r.backlog = r.backlog[:0]
	for _, inst := range s.instances {
		if inst.isSpout {
			r.backlog = append(r.backlog, inst.backlog)
		}
	}
	dt := s.cfg.Tick
	dtSec := dt.Seconds()
	at := s.elapsed
	k := 0
	for range w.ticks {
		j := 0
		for _, inst := range s.instances {
			if !inst.isSpout {
				continue
			}
			t := &w.spouts[k]
			k++
			offered := inst.offered(at, dtSec)
			if offered != t.offered {
				return false
			}
			b := r.backlog[j] + offered
			if t.limit != noPull {
				p := pull(b, t.limit)
				if p != t.pull {
					return false
				}
				b -= p
			}
			r.backlog[j] = b
			j++
		}
		at += dt
	}
	return true
}
