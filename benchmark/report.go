package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndMetrics are what a user of the service sees; a "request" of
// figures-batch is one whole suite run. BENCHMARK.json repeats this
// list, and a test keeps the two in step.
//
// p50_ms, capacity_rps and cpu_us_per_req were end-to-end metrics
// until their run-to-run spread was measured: on this shared 2-vCPU
// host every timing rises by 1.3–1.9x for stretches of seconds to
// minutes, and over ten runs their interquartile spread reached
// 0.2–0.37 of the median, beyond any bound the benchmark may set. By
// the rule the issue fixed beforehand (spread above 0.10 at seed) they
// moved, under the same names, to the daemon.* diagnostics of the
// traced run. An untraced run still measures and prints them as notes.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"within_limit_share", "share", "higher", 0.20},
	{"rss_mb", "MB", "lower", 0.20},
}

// perLayerMetrics lists every layer metric, layer = module name.
func perLayerMetrics() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lower("daemon.p50_ms", "ms"),
		higher("daemon.capacity_rps", "1/s"),
		lower("daemon.cpu_us_per_req", "us"),
		lower("daemon.boot_s", "s"),
		lower("daemon.prefill_s", "s"),
		lower("daemon.tail_ms", "ms"),
		higher("daemon.tail_pct", "%"),
		lower("daemon.wire_overhead_us", "us"),
		lower("daemon.idle_cpu_pct", "%"),
		lower("loadgen.lateness_p99_ms", "ms"),
		lower("loadgen.cpu_us_per_req", "us"),
	}
	for _, op := range allOps {
		defs = append(defs,
			lower("api.op."+op+".p50_ms", "ms"),
			lower("api.op."+op+".tail_ms", "ms"),
			lower("api.op."+op+".failed", "count"),
		)
	}
	defs = append(defs,
		lower("api.handler_us", "us"),
		lower("api.handler_allocs", "count"),
		lower("api.encode_predict_us", "us"),
		lower("api.residual_us", "us"),
		lower("api.encode_audit_us", "us"),
		lower("sched.submit_us", "us"),
		lower("sched.calcache_lookup_1_ns", "ns"),
		lower("sched.calcache_lookup_256_ns", "ns"),
		higher("sched.calcache_hit_rate", "share"),
		higher("sched.coalesced_share", "share"),
		lower("sched.sheds", "count"),
		lower("sched.mean_run_ms", "ms"),
		lower("core.predict_us", "us"),
		lower("core.suggest_us", "us"),
		lower("core.calibrate_ms", "ms"),
		lower("core.calibrate_allocs", "count"),
		lower("metrics.source_rate_us", "us"),
		lower("tsdb.downsample_5m_us", "us"),
		lower("tsdb.downsample_1h_us", "us"),
		lower("tsdb.downsample_under_append_us", "us"),
		lower("tsdb.append_batch_ns_per_sample", "ns"),
		lower("tsdb.query_us", "us"),
		lower("tsdb.snapshot_load_s", "s"),
		lower("tsdb.snapshot_save_s", "s"),
		lower("tsdb.snapshot_bytes", "bytes"),
		lower("tsdb.bytes_per_point", "bytes"),
		lower("telemetry.scrape_ms", "ms"),
		lower("telemetry.scrape_allocs", "count"),
		lower("telemetry.exposition_ms", "ms"),
		lower("telemetry.slo_evaluate_us", "us"),
		lower("forecast.prophet_fit_ms", "ms"),
		lower("forecast.prophet_predict_us", "us"),
		lower("forecast.rank_ms", "ms"),
		lower("audit.record_ns", "ns"),
		lower("audit.list_us", "us"),
		lower("audit.resolve_ms", "ms"),
		lower("usage.begin_finish_ns", "ns"),
		lower("usage.snapshot_us", "us"),
		lower("tracker.get_ns", "ns"),
		lower("graph.build_us", "us"),
		lower("heron.sim_minute_us", "us"),
	)
	for _, name := range experimentNames {
		defs = append(defs, lower("experiments."+name+"_s", "s"))
	}
	return append(defs,
		higher("experiments.parallel_speedup", "ratio"),
		lower("trace.overhead_pct", "%"),
	)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is a result plus what a person reading the output wants:
// sample counts, the stated tail percentile and the first failures.
type runReport struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Result   result   `json:"result"`
	Notes    []string `json:"notes,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

// fill builds the metrics map from measured values, in defs' units. A
// layer metric the workload does not exercise reads 0.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// maxFailuresShown bounds how many failure messages a report carries.
const maxFailuresShown = 10

// latenciesMS collects phase latencies in milliseconds, all ops or one.
func latenciesMS(samples []sample, op string) []float64 {
	var v []float64
	for i := range samples {
		if op == "" || samples[i].req.Op == op {
			v = append(v, float64(samples[i].latency)/1e6)
		}
	}
	return v
}

// Generator validity limits: beyond them the generator lost its
// schedule and the run measured the generator, not the daemon. The
// lateness limit is on the median: lateness is kept out of latency, a
// Go timer on an idle P wakes about a millisecond late, and when the
// host stalls the VM the tail of lateness reaches tens of milliseconds
// (p99 of 42 and 69 ms in two of ten 20/s runs) without the schedule
// as a whole being lost. The p99 is reported, not judged.
const (
	maxLatenessP50MS = 5.0
	maxGeneratorCore = 0.8
)

// reportServing turns a serving outcome into a report.
func reportServing(w workload, seed int64, traced bool, o *servingOutcome, layers *layerResult) runReport {
	rep := runReport{Workload: w.Name, Seed: seed, Traced: traced}
	fail := func(format string, args ...any) {
		rep.Result.Failed++
		if len(rep.Failures) < maxFailuresShown {
			rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
		}
	}
	count := func(ok []bool) (n int) {
		for _, b := range ok {
			if b {
				n++
			}
		}
		return n
	}
	valid := func(samples []sample, phaseName string) []bool {
		ok := make([]bool, len(samples))
		for i := range samples {
			if err := validate(&samples[i]); err != nil {
				fail("%s %s %s: %v", phaseName, samples[i].req.Op, samples[i].req.Body, err)
			} else {
				ok[i] = true
			}
		}
		return ok
	}
	pacedOK := valid(o.paced.samples, "paced")
	var capacities []float64
	for _, ph := range o.closed {
		ok := valid(ph.samples, "closed")
		capacities = append(capacities, float64(count(ok))/ph.wall.Seconds())
		rep.Result.Attempted += len(ph.samples)
	}
	valid(o.serial.samples, "serial")
	for _, err := range o.checkErrs {
		fail("%v", err)
	}
	rep.Result.Attempted += len(o.paced.samples) + len(o.serial.samples)
	v := map[string]float64{}
	all := sortedCopy(latenciesMS(o.paced.samples, ""))
	v["setup_s"] = median(o.setupS)
	p50 := percentile(all, 50)
	within := 0
	for i, s := range o.paced.samples {
		if pacedOK[i] && float64(s.latency)/1e6 <= w.LimitMS {
			within++
		}
	}
	if n := len(o.paced.samples); n > 0 {
		v["within_limit_share"] = float64(within) / float64(n)
	}
	capacity, cpuPerReq := median(capacities), 0.0
	if n := count(pacedOK); n > 0 {
		cpuPerReq = o.pacedCPU * 1e6 / float64(n)
	}
	v["rss_mb"] = o.rssMB

	// Generator validity.
	var late []float64
	for _, s := range o.paced.samples {
		late = append(late, float64(s.lateness)/1e6)
	}
	late = sortedCopy(late)
	lateP50, lateP99 := percentile(late, 50), percentile(late, 99)
	genShare := o.paced.genCPU.Seconds() / o.paced.wall.Seconds()
	if lateP50 > maxLatenessP50MS {
		fail("generator lateness p50 %.3f ms exceeds %.1f ms", lateP50, maxLatenessP50MS)
	}
	if genShare > maxGeneratorCore {
		fail("generator used %.2f of a core, more than %.1f", genShare, maxGeneratorCore)
	}
	tailMS, tailPct := tail(all)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("paced: %d requests at %g/s, limit %g ms: p50 %.4f ms from %d samples, tail p%.3f = %.3f ms, daemon CPU %.1f us/request", len(o.paced.samples), w.RateRPS, w.LimitMS, p50, len(all), tailPct, tailMS, cpuPerReq),
		fmt.Sprintf("closed loop: %d clients, one phase per daemon: %.0f valid answers/s, median %.0f", closedClients, capacities, capacity),
		fmt.Sprintf("generator: lateness p50 %.3f ms, p99 %.3f ms, %.2f of a core; oracle compared %d answers", lateP50, lateP99, genShare, o.oracleCompared),
		fmt.Sprintf("set-up runs: %v s", o.setupS),
	)
	rep.Result.Correct = rep.Result.Failed == 0
	if !traced {
		rep.Result.Metrics = fill(endToEndMetrics, v)
		return rep
	}

	// Layer metrics measured over the wire.
	lv := map[string]float64{
		"daemon.p50_ms":           p50,
		"daemon.capacity_rps":     capacity,
		"daemon.cpu_us_per_req":   cpuPerReq,
		"daemon.boot_s":           o.bootS,
		"daemon.prefill_s":        o.prefillS,
		"daemon.tail_ms":          tailMS,
		"daemon.tail_pct":         tailPct,
		"daemon.idle_cpu_pct":     o.idleCPUPct,
		"loadgen.lateness_p99_ms": lateP99,
		"tsdb.snapshot_load_s":    o.historyStats.loadS,
		"tsdb.snapshot_save_s":    o.historyStats.saveS,
		"tsdb.snapshot_bytes":     float64(o.historyStats.bytes),
		"tsdb.bytes_per_point":    o.historyStats.bytesPerPoint,
	}
	if n := len(o.paced.samples); n > 0 {
		lv["loadgen.cpu_us_per_req"] = o.paced.genCPU.Seconds() * 1e6 / float64(n)
	}
	for _, op := range allOps {
		lat := sortedCopy(latenciesMS(o.paced.samples, op))
		if len(lat) == 0 {
			continue
		}
		lv["api.op."+op+".p50_ms"] = percentile(lat, 50)
		lv["api.op."+op+".tail_ms"], _ = tail(lat)
		for i, s := range o.paced.samples {
			if s.req.Op == op && !pacedOK[i] {
				lv["api.op."+op+".failed"]++
			}
		}
	}
	runs := float64(o.sched1.Scheduler.Runs - o.sched0.Scheduler.Runs)
	coalesced := float64(o.sched1.Scheduler.Coalesced - o.sched0.Scheduler.Coalesced)
	hits := float64(o.sched1.CalCache.Hits - o.sched0.CalCache.Hits)
	misses := float64(o.sched1.CalCache.Misses - o.sched0.CalCache.Misses)
	if hits+misses > 0 {
		lv["sched.calcache_hit_rate"] = hits / (hits + misses)
	}
	if runs+coalesced > 0 {
		lv["sched.coalesced_share"] = coalesced / (runs + coalesced)
	}
	lv["sched.sheds"] = float64(o.sched1.Scheduler.Sheds - o.sched0.Scheduler.Sheds)
	lv["sched.mean_run_ms"] = o.sched1.Scheduler.MeanRunMs
	for name, val := range layers.metrics {
		lv[name] = val
	}
	// The serial probe and the hot replay draw the same predict-fleet
	// mix, so their difference is what the wire adds to the handler.
	if w.Name == servingWorkloads[0].Name {
		wire := percentile(sortedCopy(latenciesMS(o.serial.samples, "")), 50) * 1e3
		lv["daemon.wire_overhead_us"] = wire - lv["api.handler_us"]
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"budget: serial wire p50 %.1f us = wire overhead %.1f + handler residual %.1f + stage self times %.1f",
			wire, lv["daemon.wire_overhead_us"], lv["api.residual_us"], layers.hotStagesUS))
	}
	rep.Result.Metrics = fill(perLayerMetrics(), lv)
	return rep
}

// reportFigures turns a figures-batch outcome into a report.
func reportFigures(seed int64, traced bool, o *figuresOutcome, layers *layerResult) runReport {
	rep := runReport{Workload: figuresWorkload, Seed: seed, Traced: traced}
	runs := o.all()
	rep.Result.Attempted = len(runs)
	var rss float64
	for _, r := range runs {
		if r.err != nil {
			rep.Result.Failed++
			if len(rep.Failures) < maxFailuresShown {
				rep.Failures = append(rep.Failures, r.err.Error())
			}
		}
		if r.rssMB > rss {
			rss = r.rssMB
		}
	}
	rep.Result.Correct = rep.Result.Failed == 0
	wall := func(rs []figuresRun) (w []float64) {
		for _, r := range rs {
			w = append(w, r.wallS)
		}
		return w
	}
	seqMed, parMed := median(wall(o.seq)), median(wall(o.par))
	within := 0
	var cpu []float64
	for _, r := range o.seq {
		if r.err == nil && r.wallS*1e3 <= figuresLimitMS {
			within++
		}
		cpu = append(cpu, r.cpuS*1e6)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("suite wall: sequential %v s, default parallelism %v s, warm-up %v s; CPU per sequential suite %.0f us",
		wall(o.seq), wall(o.par), wall(o.warm), median(cpu)))
	if !traced {
		rep.Result.Metrics = fill(endToEndMetrics, map[string]float64{
			"setup_s":            median(wall(o.warm)),
			"within_limit_share": float64(within) / float64(len(o.seq)),
			"rss_mb":             rss,
		})
		return rep
	}
	lv := map[string]float64{
		"daemon.p50_ms":                seqMed * 1e3,
		"daemon.capacity_rps":          1 / parMed,
		"daemon.cpu_us_per_req":        median(cpu),
		"experiments.parallel_speedup": seqMed / parMed,
	}
	for name, r := range o.perExperiment {
		lv["experiments."+name+"_s"] = r.wallS
	}
	for name, val := range layers.metrics {
		lv[name] = val
	}
	rep.Result.Metrics = fill(perLayerMetrics(), lv)
	return rep
}

// print writes every metric by name with its unit, then the notes and
// failures.
func (rep runReport) print(w *strings.Builder) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v correct=%v attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Traced, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}
