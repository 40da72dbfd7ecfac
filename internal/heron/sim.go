package heron

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"caladrius/internal/instrument"
	"caladrius/internal/topology"
	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

// Metric names emitted by the simulator, modelled on Heron's metrics.
const (
	// MetricSourceCount is the external offered load at a spout
	// instance per window (the paper's "source throughput").
	MetricSourceCount = "source-count"
	// MetricArrivalCount is tuples arriving at an instance per window.
	MetricArrivalCount = "arrival-count"
	// MetricExecuteCount is tuples processed per window (the paper's
	// "processed-count"; the entity's input throughput).
	MetricExecuteCount = "execute-count"
	// MetricEmitCount is tuples emitted per window (output throughput).
	MetricEmitCount = "emit-count"
	// MetricFailCount is tuples failed in user logic per window.
	MetricFailCount = "fail-count"
	// MetricBackpressureMs is milliseconds of the window this instance
	// spent initiating backpressure (0–60000 for 1-minute windows).
	MetricBackpressureMs = "backpressure-time-ms"
	// MetricCPULoad is the average CPU cores used over the window.
	MetricCPULoad = "cpu-load"
	// MetricPendingBytes is the queue occupancy gauge at window end.
	MetricPendingBytes = "pending-bytes"
	// MetricBacklogTuples is the external (pub-sub) backlog gauge at a
	// spout instance at window end.
	MetricBacklogTuples = "external-backlog"
	// MetricStreamEmitCount is tuples emitted per window on one named
	// output stream (label "stream"), enabling per-stream I/O
	// coefficient calibration for fan-out components.
	MetricStreamEmitCount = "stream-emit-count"
	// MetricRestartCount counts out-of-memory restarts of an instance
	// per window: §V-E notes instances "may exceed the container memory
	// limit when their input rate rises to sufficiently high levels".
	// A restart drops the instance's queue (counted as failed tuples)
	// and takes the instance offline for restartDelay.
	MetricRestartCount = "restart-count"
	// MetricLatencyMs is the average queueing delay a tuple experienced
	// at this instance over the window, in milliseconds (Little's law:
	// queue length over service rate, averaged per tick). One of the
	// paper's four golden signals: latency rises once queues build,
	// i.e. under backpressure.
	MetricLatencyMs = "queue-latency-ms"
)

// TopologyComponent is the pseudo-component label under which
// topology-wide metrics (e.g. topology backpressure time) are stored.
const TopologyComponent = "__topology__"

// DefaultStart is the simulated wall-clock origin of every simulation:
// 2026-01-05 00:00 UTC, a Monday, so weekly seasonality aligns.
var DefaultStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// Default watermarks match Heron's defaults quoted in the paper.
const (
	DefaultHighWatermarkBytes = 100e6
	DefaultLowWatermarkBytes  = 50e6
)

const (
	// metricsInterval is the metrics rollup window.
	metricsInterval = time.Minute
	// restartDelay is how long an instance stays offline after an
	// out-of-memory restart. An instance restarts when its pending
	// queue exceeds its container RAM allocation — with the default
	// 2 GB per instance and 100 MB watermarks this never fires; it is
	// reachable via custom resources or watermarks (failure injection).
	restartDelay = 10 * time.Second
)

// Config assembles a simulation.
type Config struct {
	// Topology is the logical job; required.
	Topology *topology.Topology
	// Plan assigns instances to containers. Default: round-robin over
	// 2 containers (the paper's Fig. 1 layout).
	Plan *topology.PackingPlan
	// Profiles maps component name → performance profile; every
	// component must have one.
	Profiles map[string]ComponentProfile
	// SpoutRates maps spout component name → total offered source rate
	// (tuples/second across all its instances); every spout must have
	// one.
	SpoutRates map[string]workload.RateSchedule
	// HighWatermarkBytes / LowWatermarkBytes configure backpressure
	// hysteresis; defaults 100 MB / 50 MB.
	HighWatermarkBytes float64
	LowWatermarkBytes  float64
	// Tick is the simulation step; it must divide the one-minute
	// metrics window, so every window holds the same ticks. Default
	// 100 ms.
	Tick time.Duration
	// DB receives metrics; one is created when nil. Simulations given
	// the same DB share one store, their series told apart by the
	// topology label.
	DB *tsdb.DB
	// ServiceNoiseStd makes the run behave like a real deployment on a
	// shared cluster: each instance's capacity is scaled once per run
	// by a Gaussian factor (the host it landed on), and jittered each
	// tick (contention, GC pauses). 0 disables both; the paper's
	// testbed numbers imply a few percent.
	ServiceNoiseStd float64
	// NoiseSeed makes the noise reproducible; runs with different
	// seeds act as independent repetitions of an experiment.
	NoiseSeed int64
	// Metrics, when set, receives simulator event telemetry: tick
	// counts, backpressure on/off transitions and active instances, and
	// tuples processed/dropped, published once per Run. Nil disables
	// event telemetry.
	Metrics *instrument.Registry
}

// simEvents bundles the simulator's telemetry instruments, labelled by
// topology so several simulations can share one registry.
type simEvents struct {
	ticks     *instrument.Counter
	bpOn      *instrument.Counter
	bpOff     *instrument.Counter
	bpActive  *instrument.Gauge
	processed *instrument.Counter
	dropped   *instrument.Counter
}

func newSimEvents(reg *instrument.Registry, topo string) *simEvents {
	l := instrument.Labels{"topology": topo}
	reg.SetHelp("caladrius_sim_ticks_total", "Simulation ticks executed.")
	reg.SetHelp("caladrius_sim_backpressure_transitions_total", "Instance backpressure flag flips, by new state.")
	reg.SetHelp("caladrius_sim_backpressure_active_instances", "Instances currently initiating backpressure.")
	reg.SetHelp("caladrius_sim_tuples_processed_total", "Tuples executed across all instances.")
	reg.SetHelp("caladrius_sim_tuples_dropped_total", "Tuples lost to user-logic failures and OOM restarts.")
	return &simEvents{
		ticks:     reg.Counter("caladrius_sim_ticks_total", l),
		bpOn:      reg.Counter("caladrius_sim_backpressure_transitions_total", instrument.Labels{"topology": topo, "state": "on"}),
		bpOff:     reg.Counter("caladrius_sim_backpressure_transitions_total", instrument.Labels{"topology": topo, "state": "off"}),
		bpActive:  reg.Gauge("caladrius_sim_backpressure_active_instances", l),
		processed: reg.Counter("caladrius_sim_tuples_processed_total", l),
		dropped:   reg.Counter("caladrius_sim_tuples_dropped_total", l),
	}
}

// eventTally is the event telemetry of the ticks since the last
// publish: step adds into it, Run publishes and zeroes it.
type eventTally struct {
	ticks, processed, dropped, bpOn, bpOff float64
	active                                 float64 // instances in backpressure after the last tick
}

type route struct {
	stream      string
	toComponent string
	grouping    topology.Grouping
	weights     []float64 // fields grouping shares per downstream instance
	alpha       float64
	toInstances []*instanceState

	// wStreamEmit accumulates this route's per-window stream emits;
	// emitSeen turns true on the first emit, after which the series is
	// flushed every window (matching the historical lazily-created
	// per-stream map semantics without its per-tick key allocations).
	wStreamEmit float64
	emitSeen    bool
	series      *tsdb.SeriesHandle

	slackEmit float64 // the stream emit of the slack record
}

// instanceSeries bundles an instance's interned tsdb series handles,
// created once at New so flushWindow appends without rebuilding label
// maps or formatting instance/container ids.
type instanceSeries struct {
	source, backlog, arrival, execute, emit, fail,
	bpMs, cpu, latency, pending, restarts *tsdb.SeriesHandle
}

type instanceState struct {
	id        topology.InstanceID
	container int
	profile   ComponentProfile
	isSpout   bool
	slow      float64 // service-rate multiplier
	// baseSlow preserves the noise-adjusted multiplier so slow faults
	// can scale slow and revert it exactly; fUnreach marks the instance
	// partitioned (arrivals addressed to it are lost in flight). Both
	// are only ever set by applyFaults (see faults.go).
	baseSlow float64
	fUnreach bool

	// Hoisted spout lookups: the component's offered-rate schedule and
	// instance count, resolved once at New instead of two map lookups
	// per spout per tick.
	rate  workload.RateSchedule
	peers float64

	series instanceSeries

	queueTuples float64 // pending in the instance's input queue
	backlog     float64 // external source backlog (spouts)
	bp          bool    // instance currently initiating backpressure
	ramBytes    float64 // container RAM allocation for this instance
	downTicks   int     // remaining offline ticks after an OOM restart
	wRestarts   float64

	arrivedTick float64 // arrivals routed to this instance this tick

	// Window accumulators.
	wSource   float64
	wArrived  float64
	wExecuted float64
	wEmitted  float64
	wFailed   float64
	wBpMs     float64
	wCPUSecs  float64
	wLatMs    float64 // sum over ticks of per-tick queue latency (ms)
	wLatTicks float64
	// wQueueDropped / wRouteDropped split the window's failed tuples by
	// cause for the conservation totals: queue losses (OOM restarts and
	// injected crashes) versus arrivals discarded by a partition fault.
	// Both are also counted into wFailed.
	wQueueDropped float64
	wRouteDropped float64

	// cum holds the totals of every closed window; Totals() adds the
	// live window accumulators on top, so cumulative counts are exact
	// at any tick without touching the per-tick hot path (the adds
	// happen once per flushWindow).
	cum cumTotals

	routes []route

	// svc, ServiceRate·slow·Tick (set with slow by setSlow), and hwm,
	// the high watermark in tuples, are hoisted out of step. They go
	// last: ahead of the hot fields, stepped ticks read slower.
	svc, hwm float64
	slack    slackInst // the instance's part of the slack record
}

// cumTotals accumulates flushed window counters for Totals().
type cumTotals struct {
	source, arrived, executed, emitted, failed float64
	queueDropped, routeDropped, restarts, bpMs float64
}

// add adds one window's totals into c.
func (c *cumTotals) add(w *cumTotals) {
	c.source += w.source
	c.arrived += w.arrived
	c.executed += w.executed
	c.emitted += w.emitted
	c.failed += w.failed
	c.queueDropped += w.queueDropped
	c.routeDropped += w.routeDropped
	c.restarts += w.restarts
	c.bpMs += w.bpMs
}

// Simulation is a runnable instance of the simulator. Create with New;
// a Simulation is single-goroutine (drive it from one caller).
type Simulation struct {
	cfg       Config
	db        *tsdb.DB
	instances []*instanceState // topological component order
	byComp    map[string][]*instanceState
	elapsed   time.Duration
	windowEnd time.Duration
	wTopoBpMs float64
	noise     *rand.Rand // nil when ServiceNoiseStd == 0
	events    *simEvents // nil when Config.Metrics is nil
	tally     eventTally

	injector  FaultInjector // nil when no fault injection
	faultTick bool          // a fault was active on the previous tick

	topoBpSeries *tsdb.SeriesHandle
	batch        []tsdb.BatchSample // flushWindow's staging buffer, reused
	tickMs       float64            // float64(Tick.Milliseconds()), hoisted
	caps         []float64          // a noisy tick's capacities, drawn before its instance loop

	replay replayer // steady-state replay (replay.go)
	slack  slack    // noisy slack-window replay (replay.go)
}

// New validates the configuration and builds a simulation.
func New(cfg Config) (*Simulation, error) {
	if cfg.Topology == nil {
		return nil, errors.New("heron: nil topology")
	}
	t := cfg.Topology
	if cfg.Plan == nil {
		plan, err := topology.RoundRobinPack(t, 2)
		if err != nil {
			return nil, err
		}
		cfg.Plan = plan
	} else if err := cfg.Plan.Validate(t); err != nil {
		return nil, err
	}
	if cfg.HighWatermarkBytes == 0 {
		cfg.HighWatermarkBytes = DefaultHighWatermarkBytes
	}
	if cfg.LowWatermarkBytes == 0 {
		cfg.LowWatermarkBytes = DefaultLowWatermarkBytes
	}
	if !(cfg.LowWatermarkBytes > 0 && cfg.HighWatermarkBytes > cfg.LowWatermarkBytes) || math.IsInf(cfg.HighWatermarkBytes, 1) {
		return nil, fmt.Errorf("heron: watermarks high %g must exceed low %g > 0, both finite", cfg.HighWatermarkBytes, cfg.LowWatermarkBytes)
	}
	if cfg.Tick == 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("heron: non-positive tick %s", cfg.Tick)
	}
	if metricsInterval < cfg.Tick {
		return nil, fmt.Errorf("heron: metrics interval %s below tick %s", metricsInterval, cfg.Tick)
	}
	if metricsInterval%cfg.Tick != 0 {
		return nil, fmt.Errorf("heron: tick %s does not divide the %s metrics window", cfg.Tick, metricsInterval)
	}
	if cfg.DB == nil {
		cfg.DB = tsdb.New(0)
	}
	for _, c := range t.Components() {
		p, ok := cfg.Profiles[c.Name]
		if !ok {
			return nil, fmt.Errorf("heron: component %q has no profile", c.Name)
		}
		if err := p.validate(c.Name); err != nil {
			return nil, err
		}
		if c.Kind == topology.Spout {
			if _, ok := cfg.SpoutRates[c.Name]; !ok {
				return nil, fmt.Errorf("heron: spout %q has no rate schedule", c.Name)
			}
		}
	}
	for name := range cfg.SpoutRates {
		c := t.Component(name)
		if c == nil || c.Kind != topology.Spout {
			return nil, fmt.Errorf("heron: rate schedule for non-spout %q", name)
		}
	}

	if !(cfg.ServiceNoiseStd >= 0) || math.IsInf(cfg.ServiceNoiseStd, 1) {
		return nil, fmt.Errorf("heron: service noise %g, want a finite σ ≥ 0", cfg.ServiceNoiseStd)
	}
	s := &Simulation{cfg: cfg, db: cfg.DB, byComp: map[string][]*instanceState{}}
	dtSec := cfg.Tick.Seconds()
	if cfg.Metrics != nil {
		s.events = newSimEvents(cfg.Metrics, t.Name())
	}
	if cfg.ServiceNoiseStd > 0 {
		s.noise = rand.New(rand.NewSource(cfg.NoiseSeed))
	}
	for _, id := range t.Instances() {
		cont, _ := cfg.Plan.ContainerOf(id)
		comp := t.Component(id.Component)
		slow := 1.0
		if s.noise != nil {
			// Per-run systematic placement variation: the "host" this
			// instance landed on for this deployment.
			f := 1 + cfg.ServiceNoiseStd*s.noise.NormFloat64()
			if f < 0.1 {
				f = 0.1
			}
			slow *= f
		}
		inst := &instanceState{
			id:        id,
			container: cont,
			profile:   cfg.Profiles[id.Component].withDefaults(),
			isSpout:   comp.Kind == topology.Spout,
			baseSlow:  slow,
			ramBytes:  float64(comp.Resources.RAMMB) * 1e6,
		}
		inst.setSlow(slow, dtSec)
		inst.hwm = cfg.HighWatermarkBytes / inst.profile.BytesPerTuple
		s.instances = append(s.instances, inst)
		s.byComp[id.Component] = append(s.byComp[id.Component], inst)
	}
	s.caps = make([]float64, len(s.instances))
	// Precompute routing tables.
	for _, inst := range s.instances {
		for _, stream := range t.Outbound(inst.id.Component) {
			emit := inst.profile.alphaFor(stream.Name)
			downP := t.Component(stream.To).Parallelism
			var weights []float64
			if stream.Grouping == topology.FieldsGrouping {
				km := emit.Keys
				if km == nil {
					km = UniformKeys{}
				}
				weights = km.Weights(downP)
			}
			inst.routes = append(inst.routes, route{
				stream:      stream.Name,
				toComponent: stream.To,
				grouping:    stream.Grouping,
				weights:     weights,
				alpha:       emit.Alpha,
				toInstances: s.byComp[stream.To],
			})
		}
	}
	// Intern every series the instance will ever write, and hoist the
	// per-tick spout lookups, now that byComp is complete. Handles bind
	// their series lazily, so never-written ones (spout metrics on
	// bolts, streams that never emit) leave the database untouched.
	s.tickMs = float64(cfg.Tick.Milliseconds())
	topoName := t.Name()
	for _, inst := range s.instances {
		if inst.isSpout {
			inst.rate = cfg.SpoutRates[inst.id.Component]
			inst.peers = float64(len(s.byComp[inst.id.Component]))
		}
		base := tsdb.Labels{
			"topology":  topoName,
			"component": inst.id.Component,
			"instance":  strconv.Itoa(inst.id.Index),
			"container": strconv.Itoa(inst.container),
		}
		inst.series = instanceSeries{
			source:   s.db.Handle(MetricSourceCount, base),
			backlog:  s.db.Handle(MetricBacklogTuples, base),
			arrival:  s.db.Handle(MetricArrivalCount, base),
			execute:  s.db.Handle(MetricExecuteCount, base),
			emit:     s.db.Handle(MetricEmitCount, base),
			fail:     s.db.Handle(MetricFailCount, base),
			bpMs:     s.db.Handle(MetricBackpressureMs, base),
			cpu:      s.db.Handle(MetricCPULoad, base),
			latency:  s.db.Handle(MetricLatencyMs, base),
			pending:  s.db.Handle(MetricPendingBytes, base),
			restarts: s.db.Handle(MetricRestartCount, base),
		}
		for ri := range inst.routes {
			r := &inst.routes[ri]
			sl := base.Clone()
			sl["stream"] = r.stream + "->" + r.toComponent
			r.series = s.db.Handle(MetricStreamEmitCount, sl)
		}
	}
	s.topoBpSeries = s.db.Handle(MetricBackpressureMs, tsdb.Labels{
		"topology":  topoName,
		"component": TopologyComponent,
		"instance":  "0",
		"container": "-1",
	})
	return s, nil
}

// DB returns the metrics database the simulation writes to.
func (s *Simulation) DB() *tsdb.DB { return s.db }

// Start returns the simulated wall-clock origin, DefaultStart.
func (s *Simulation) Start() time.Time { return DefaultStart }

// Elapsed returns the simulated time processed so far.
func (s *Simulation) Elapsed() time.Duration { return s.elapsed }

// Run advances the simulation by the given simulated duration, writing
// metrics for every completed rollup window, then publishes the ticks'
// event telemetry. A whole window that starts from a recorded
// steady-state boundary is replayed rather than stepped, and so is a
// noisy quiet window in which every instance has slack (replay.go).
func (s *Simulation) Run(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("heron: negative duration %s", d)
	}
	end := s.elapsed + d
	for s.elapsed < end {
		if s.elapsed == s.windowEnd && s.windowEnd+metricsInterval <= end {
			if w := s.replay.next; w != nil && s.replayWindow(w) {
				continue
			}
			s.slack.quiet = s.noise != nil && s.injector == nil && !slices.ContainsFunc(s.instances, (*instanceState).busy)
			if s.slack.quiet && s.slack.recorded {
				s.slackWindow()
				continue
			}
		}
		s.step()
	}
	s.publishEvents()
	return nil
}

// publishEvents adds the tally into the event instruments, one update
// each, and zeroes it. With no tick since the last publish there is
// nothing to say, so the instruments (the gauge included) stay as they
// are.
func (s *Simulation) publishEvents() {
	t := s.tally
	s.tally = eventTally{}
	ev := s.events
	if ev == nil || t.ticks == 0 {
		return
	}
	ev.ticks.Add(t.ticks)
	ev.processed.Add(t.processed)
	ev.dropped.Add(t.dropped)
	ev.bpOn.Add(t.bpOn)
	ev.bpOff.Add(t.bpOff)
	ev.bpActive.Set(t.active)
}

// step advances one tick.
func (s *Simulation) step() {
	var dropped float64
	if s.injector != nil {
		dropped = s.applyFaults()
	}
	if s.noise != nil {
		s.drawCapacities()
	}
	s.tick(dropped)
}

// drawCapacities draws a noisy tick's capacities into s.caps, in
// instance order, jittering each service capacity; nothing else draws.
func (s *Simulation) drawCapacities() {
	for i, inst := range s.instances {
		f := 1 + s.cfg.ServiceNoiseStd*s.noise.NormFloat64()
		if f < 0 {
			f = 0
		}
		s.caps[i] = inst.svc * f
	}
}

// tick advances one tick at the capacities drawn into s.caps; dropped
// is what the fault injector's queue drops lost. A window's first tick,
// known to start quiet, that ends quiet becomes the slack record
// (replay.go).
func (s *Simulation) tick(dropped float64) {
	dtSec := s.cfg.Tick.Seconds()
	tickProcessed, tickDropped := 0.0, dropped
	rec := s.replay.rec

	// Backpressure state broadcast: spouts react to the flags set at
	// the end of the previous tick (one-tick propagation delay).
	topoBP := false
	for _, inst := range s.instances {
		if inst.bp {
			topoBP = true
			break
		}
	}

	for i, inst := range s.instances {
		var processed float64
		capacity := inst.svc // noiseless capacities are not drawn
		if s.noise != nil {
			capacity = s.caps[i]
		}
		if inst.isSpout {
			offered := inst.offered(s.elapsed, dtSec)
			inst.wSource += offered
			inst.backlog += offered
			limit := noPull
			if inst.downTicks > 0 {
				// Offline (crash or stall fault): the source keeps
				// producing into the external backlog, but nothing is
				// pulled.
				inst.downTicks--
			} else if !topoBP {
				// A spout draining backlog at its maximum pull rate
				// must not overshoot downstream queues within one
				// tick: in the real system, in-flight data is bounded
				// by the stream managers' socket buffers, so delivery
				// halts as soon as the receiver's high watermark is
				// reached. Bound this tick's pull by the downstream
				// headroom (queue space up to the watermark plus one
				// tick of downstream processing) as well as capacity.
				limit = capacity
				if room := downstreamHeadroom(inst); limit > room {
					limit = room
				}
				processed = pull(inst.backlog, limit)
				inst.backlog -= processed
			}
			if rec != nil {
				rec.spouts = append(rec.spouts, spoutTick{offered, limit, processed})
			}
		} else {
			arrived := inst.arrivedTick
			inst.arrivedTick = 0
			if inst.fUnreach {
				// Partition fault: arrivals addressed to this instance
				// are lost in flight.
				inst.wRouteDropped += arrived
				inst.wFailed += arrived
				tickDropped += arrived
				arrived = 0
			}
			inst.wArrived += arrived
			inst.queueTuples += arrived
			if inst.queueTuples*inst.profile.BytesPerTuple > inst.ramBytes {
				// Out of memory: the instance restarts, losing its
				// queued tuples and going offline for restartDelay.
				inst.wFailed += inst.queueTuples
				inst.wQueueDropped += inst.queueTuples
				tickDropped += inst.queueTuples
				inst.queueTuples = 0
				inst.wRestarts++
				inst.downTicks = int(restartDelay / s.cfg.Tick)
			}
			if inst.downTicks > 0 {
				inst.downTicks--
			} else {
				processed = inst.queueTuples
				if processed > capacity {
					processed = capacity
				}
				inst.queueTuples -= processed
			}
		}
		failed := processed * inst.profile.FailureRate
		ok := processed - failed
		inst.wExecuted += processed
		inst.wFailed += failed
		tickProcessed += processed
		tickDropped += failed

		var emitted float64
		for ri := range inst.routes {
			r := &inst.routes[ri]
			out := ok * r.alpha
			if out == 0 {
				continue
			}
			streamOut := out
			switch r.grouping {
			case topology.ShuffleGrouping:
				share := out / float64(len(r.toInstances))
				for _, down := range r.toInstances {
					down.arrivedTick += share
				}
				emitted += out
			case topology.FieldsGrouping:
				for i, down := range r.toInstances {
					down.arrivedTick += out * r.weights[i]
				}
				emitted += out
			case topology.AllGrouping:
				for _, down := range r.toInstances {
					down.arrivedTick += out
				}
				streamOut = out * float64(len(r.toInstances))
				emitted += streamOut
			case topology.GlobalGrouping:
				r.toInstances[0].arrivedTick += out
				emitted += out
			}
			r.wStreamEmit += streamOut
			r.emitSeen = true
		}
		inst.wEmitted += emitted
		inst.wCPUSecs += processed*inst.profile.CPUPerTuple + (processed+emitted)*inst.profile.GatewayCPUPerTuple
		if !inst.isSpout {
			// Little's law estimate of per-tuple queueing delay: the
			// queue left after service divided by the service rate.
			rate := inst.profile.ServiceRate * inst.slow
			if rate > 0 {
				inst.wLatMs += inst.queueTuples / rate * 1000
				inst.wLatTicks++
			}
		}
	}

	// Update watermark-based backpressure flags, and whether a tick known
	// to start quiet ends quiet.
	var on, off, active float64
	quiet := s.slack.quiet
	for _, inst := range s.instances {
		was := inst.bp
		pending := inst.queueTuples * inst.profile.BytesPerTuple
		if pending > s.cfg.HighWatermarkBytes {
			inst.bp = true
		} else if pending < s.cfg.LowWatermarkBytes {
			inst.bp = false
		}
		if inst.bp {
			inst.wBpMs += s.tickMs
			active++
			if !was {
				on++
			}
		} else if was {
			off++
		}
		quiet = quiet && !inst.busy()
	}
	if topoBP {
		s.wTopoBpMs += s.tickMs
	}
	t := tickTally{tickProcessed, tickDropped}
	if s.slack.quiet = quiet; quiet && s.elapsed == s.windowEnd {
		s.keepSlack(t)
	}
	s.endTick(t, on, off, active)
}

// endTick adds a tick's tallies, advances the clock and flushes a
// completed window.
func (s *Simulation) endTick(t tickTally, on, off, active float64) {
	tally := &s.tally
	tally.ticks++
	tally.processed += t.processed
	tally.dropped += t.dropped
	tally.bpOn += on
	tally.bpOff += off
	tally.active = active
	if rec := s.replay.rec; rec != nil {
		rec.ticks = append(rec.ticks, t)
		rec.bpOn += on
		rec.bpOff += off
		rec.active = active
	}
	s.elapsed += s.cfg.Tick
	if s.elapsed >= s.windowEnd+metricsInterval {
		s.flushWindow()
		s.atBoundary()
	}
}

// offered is a spout instance's external load for the tick starting at
// elapsed: its share of the component's rate, never negative.
func (inst *instanceState) offered(elapsed time.Duration, dtSec float64) float64 {
	o := inst.rate(elapsed) * dtSec / inst.peers
	if o < 0 {
		return 0
	}
	return o
}

// pull is what a spout takes from its external backlog in a tick whose
// pull is bounded by limit.
func pull(backlog, limit float64) float64 {
	if backlog > limit {
		return limit
	}
	return backlog
}

// downstreamHeadroom returns how many tuples a spout instance may emit
// this tick without pushing any downstream instance past its high
// watermark, allowing for one tick of downstream processing. The
// constraint is evaluated per route and converted to input tuples via
// the route's I/O coefficient.
func downstreamHeadroom(inst *instanceState) float64 {
	room := math.Inf(1)
	for ri := range inst.routes {
		r := &inst.routes[ri]
		if r.alpha <= 0 {
			continue
		}
		var allowedOut float64
		switch r.grouping {
		case topology.ShuffleGrouping:
			minH := math.Inf(1)
			for _, down := range r.toInstances {
				if h := instanceHeadroom(down); h < minH {
					minH = h
				}
			}
			allowedOut = minH * float64(len(r.toInstances))
		case topology.FieldsGrouping:
			allowedOut = math.Inf(1)
			for i, down := range r.toInstances {
				if r.weights[i] <= 0 {
					continue
				}
				if a := instanceHeadroom(down) / r.weights[i]; a < allowedOut {
					allowedOut = a
				}
			}
		case topology.AllGrouping:
			allowedOut = math.Inf(1)
			for _, down := range r.toInstances {
				if h := instanceHeadroom(down); h < allowedOut {
					allowedOut = h
				}
			}
		case topology.GlobalGrouping:
			allowedOut = instanceHeadroom(r.toInstances[0])
		}
		if a := allowedOut / r.alpha; a < room {
			room = a
		}
	}
	return room
}

// instanceHeadroom is one downstream instance's tuple headroom this
// tick: queue space up to the high watermark plus one tick of service.
func instanceHeadroom(down *instanceState) float64 {
	h := down.hwm - (down.queueTuples + down.arrivedTick)
	if h < 0 {
		h = 0
	}
	return h + down.svc
}

// setSlow sets the instance's service-rate multiplier and, with it, its
// tick capacity before jitter.
func (inst *instanceState) setSlow(slow, dtSec float64) {
	inst.slow = slow
	inst.svc = inst.profile.ServiceRate * slow * dtSec
}

// stage queues one sample of the window being flushed.
func (s *Simulation) stage(h *tsdb.SeriesHandle, t time.Time, v float64) {
	s.batch = append(s.batch, tsdb.BatchSample{H: h, T: t, V: v})
}

// flushWindow writes the accumulated window metrics through the
// series handles interned at New, as one batch, and resets the
// accumulators. A window being recorded for replay keeps the batch and
// each instance's window totals.
func (s *Simulation) flushWindow() {
	stamp := DefaultStart.Add(s.windowEnd)
	rec := s.replay.rec
	s.batch = s.batch[:0]
	for _, inst := range s.instances {
		sr := &inst.series
		if inst.isSpout {
			s.stage(sr.source, stamp, inst.wSource)
			if rec != nil {
				rec.backlogAt = append(rec.backlogAt, len(s.batch))
			}
			s.stage(sr.backlog, stamp, inst.backlog)
		}
		s.stage(sr.arrival, stamp, inst.wArrived)
		s.stage(sr.execute, stamp, inst.wExecuted)
		s.stage(sr.emit, stamp, inst.wEmitted)
		s.stage(sr.fail, stamp, inst.wFailed)
		s.stage(sr.bpMs, stamp, inst.wBpMs)
		s.stage(sr.cpu, stamp, inst.wCPUSecs/metricsInterval.Seconds())
		if inst.wLatTicks > 0 {
			s.stage(sr.latency, stamp, inst.wLatMs/inst.wLatTicks)
		}
		for ri := range inst.routes {
			r := &inst.routes[ri]
			if !r.emitSeen {
				continue
			}
			s.stage(r.series, stamp, r.wStreamEmit)
			r.wStreamEmit = 0
		}
		s.stage(sr.pending, stamp, inst.queueTuples*inst.profile.BytesPerTuple)
		s.stage(sr.restarts, stamp, inst.wRestarts)
		w := cumTotals{
			source: inst.wSource, arrived: inst.wArrived, executed: inst.wExecuted,
			emitted: inst.wEmitted, failed: inst.wFailed, queueDropped: inst.wQueueDropped,
			routeDropped: inst.wRouteDropped, restarts: inst.wRestarts, bpMs: inst.wBpMs,
		}
		inst.cum.add(&w)
		if rec != nil {
			rec.totals = append(rec.totals, w)
		}
		inst.wSource, inst.wArrived, inst.wExecuted, inst.wEmitted = 0, 0, 0, 0
		inst.wFailed, inst.wBpMs, inst.wCPUSecs, inst.wRestarts = 0, 0, 0, 0
		inst.wLatMs, inst.wLatTicks = 0, 0
		inst.wQueueDropped, inst.wRouteDropped = 0, 0
	}
	s.stage(s.topoBpSeries, stamp, s.wTopoBpMs)
	if rec != nil {
		rec.batch = append(rec.batch, s.batch...)
	}
	s.db.AppendBatch(s.batch)
	s.wTopoBpMs = 0
	s.windowEnd += metricsInterval
}

// InstanceSnapshot exposes live instance state for tests and debugging.
type InstanceSnapshot struct {
	ID             topology.InstanceID
	Container      int
	QueueTuples    float64
	PendingBytes   float64
	Backlog        float64
	InBackpressure bool
}

// Snapshot returns the current state of every instance.
func (s *Simulation) Snapshot() []InstanceSnapshot {
	out := make([]InstanceSnapshot, len(s.instances))
	for i, inst := range s.instances {
		out[i] = InstanceSnapshot{
			ID:             inst.id,
			Container:      inst.container,
			QueueTuples:    inst.queueTuples,
			PendingBytes:   inst.queueTuples * inst.profile.BytesPerTuple,
			Backlog:        inst.backlog,
			InBackpressure: inst.bp,
		}
	}
	return out
}
