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
//
// Noisy slack windows. Noise stops states from recurring, but a tick
// that starts quiet (see busy) and in which every capacity covers its
// instance's demand adds the same whatever the capacities, so such a
// window is committed whole (slackWindow). Its capacities are still
// drawn, in step's order: the random stream stays the one stepping uses.

import (
	"bytes"
	"encoding/binary"
	"math"
	"time"

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
// what the window wrote. A slack memo is one too.
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
// simulation has a fault injector; under service noise only
// slackWindow uses it, for key and, while it records the memo, rec.
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

// slackInst is an instance's part of a quiet tick: its demand (a
// spout's offered load, a bolt's arrivals), all of which it executed,
// and what it failed, emitted and spent in CPU seconds.
type slackInst struct{ demand, failed, emitted, cpu float64 }

// slack is a noisy Simulation's slack-window state. The slack record
// (tally and each instance's and route's slack fields) is the last
// stepped tick that opened a window known quiet and ended quiet; memo
// is the first window committed whole from it, or nil.
type slack struct {
	quiet    bool // known quiet: so at the boundary, and after every tick since
	recorded bool
	tally    tickTally
	memo     *recordedWindow
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
	j := 0
	for _, inst := range s.instances {
		if inst.isSpout {
			inst.backlog = r.backlog[j]
			j++
		}
	}
	s.commitWindow(w)
	return true
}

// commitWindow commits w as the window starting now: its tick tallies,
// added in step's order, its end state, its batch restamped and with
// each spout's backlog gauge, and its window totals; then the boundary.
func (s *Simulation) commitWindow(w *recordedWindow) {
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
	stamp := DefaultStart.Add(s.windowEnd)
	s.batch = append(s.batch[:0], w.batch...)
	for i := range s.batch {
		s.batch[i].T = stamp
	}
	j := 0
	for i, inst := range s.instances {
		inst.cum.add(&w.totals[i])
		if inst.isSpout {
			s.batch[w.backlogAt[j]].V = inst.backlog
			j++
		}
	}
	s.db.AppendBatch(s.batch)
	s.elapsed += metricsInterval
	s.windowEnd += metricsInterval
	s.atBoundary()
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

// busy reports whether the instance has a queue, arrivals in flight, a
// backlog, offline ticks, backpressure or a partition.
func (inst *instanceState) busy() bool {
	return inst.queueTuples != 0 || inst.arrivedTick != 0 || inst.backlog != 0 || inst.downTicks != 0 || inst.bp || inst.fUnreach
}

// slackWindow runs the quiet window starting now against the slack
// record, drawing each tick's capacities and checking that they cover
// it. If all do, the window is committed whole: from the memo when it
// starts in the memo's state, else by applying the record tick by tick,
// and what it wrote becomes the memo. If tick k's do not, the k covered
// ticks are applied and tick k is stepped at the capacities drawn.
func (s *Simulation) slackWindow() {
	dt := s.cfg.Tick
	dtSec := dt.Seconds()
	n := int(metricsInterval / dt)
	at := s.elapsed
	for k := range n {
		s.drawCapacities()
		if !s.covers(at, dtSec) {
			for range k {
				s.applySlack()
			}
			s.tick(0)
			return
		}
		at += dt
	}
	r := &s.replay
	r.key = s.appendState(r.key[:0])
	if m := s.slack.memo; m != nil && bytes.Equal(m.start, r.key) {
		s.commitWindow(m)
		return
	}
	r.rec = &recordedWindow{start: bytes.Clone(r.key)}
	for range n {
		s.applySlack() // the last one flushes the window into r.rec
	}
	s.slack.memo, r.rec = r.rec, nil
	s.slack.memo.end = s.appendState(nil)
}

// covers reports whether, in the quiet tick starting at `at`, every
// spout is offered the recorded load and no capacity just drawn is
// below the recorded demand. Then the tick adds what the record did:
// step reads its capacities only in a spout's min(offered, capacity,
// headroom), whose headroom allowed the load in the record, and a
// bolt's min(arrived, capacity).
func (s *Simulation) covers(at time.Duration, dtSec float64) bool {
	for i, inst := range s.instances {
		d := inst.slack.demand
		if d > s.caps[i] || inst.isSpout && inst.offered(at, dtSec) != d {
			return false
		}
	}
	return true
}

// keepSlack makes the tick just stepped, a window's first, with
// tallies t, the slack record, and drops the memo. The window's
// accumulators, zero before it, hold what it added.
func (s *Simulation) keepSlack(t tickTally) {
	for _, inst := range s.instances {
		inst.slack = slackInst{inst.wExecuted, inst.wFailed, inst.wEmitted, inst.wCPUSecs}
		for ri := range inst.routes {
			r := &inst.routes[ri]
			r.slackEmit = r.wStreamEmit
		}
	}
	s.slack.recorded, s.slack.tally, s.slack.memo = true, t, nil
}

// applySlack adds the slack record as the next tick, as stepping a
// covered tick would; a quiet bolt's latency adds 0 ms a tick.
func (s *Simulation) applySlack() {
	for _, inst := range s.instances {
		d := &inst.slack
		if inst.isSpout {
			inst.wSource += d.demand
		} else {
			inst.wArrived += d.demand
			inst.wLatTicks++
		}
		inst.wExecuted += d.demand
		inst.wFailed += d.failed
		for ri := range inst.routes {
			if r := &inst.routes[ri]; r.slackEmit != 0 {
				r.wStreamEmit += r.slackEmit
				r.emitSeen = true
			}
		}
		inst.wEmitted += d.emitted
		inst.wCPUSecs += d.cpu
	}
	s.endTick(s.slack.tally, 0, 0, 0)
}
