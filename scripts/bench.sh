#!/usr/bin/env bash
# Benchmark recipe: runs the hot-path micro-benchmarks and the
# multi-rate sweep benchmarks, writes BENCH_core.json with the
# measured numbers next to the recorded pre-optimization (seed)
# baseline, then drives the serving tier with caladriusbench's
# standard mix and writes BENCH_api.json — including the scrape-path
# contention numbers before and after the batched-append fix.
#
# Usage: scripts/bench.sh [core.json] [api.json]
#        (defaults BENCH_core.json / BENCH_api.json)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_core.json}"
API_OUT="${2:-BENCH_api.json}"
MICRO_TIME="${BENCH_MICRO_TIME:-2s}"
SWEEP_COUNT="${BENCH_SWEEP_COUNT:-3x}"
API_DURATION="${BENCH_API_DURATION:-15s}"

# Seed baseline, measured on this repo immediately before the parallel
# sweep engine and the simulator hot-path work landed (same harness,
# benchtime 1s, GOMAXPROCS=1).
SEED_SIM_NS=682542      SEED_SIM_B=162131   SEED_SIM_ALLOCS=5915
SEED_APPEND_NS=872.2    SEED_APPEND_B=324   SEED_APPEND_ALLOCS=4
SEED_SWEEP_NS=247852953

# Scrape-path contention baseline, measured immediately before
# ScrapeOnce switched to the generation-swept handle cache + single
# AppendBatch flush (same harness, benchtime 1s, GOMAXPROCS=1).
# scrape_conc is one ScrapeOnce while a goroutine loops
# Query+Downsample on the same store — the scrape-vs-read contention
# this PR's fix targets.
SEED_SCRAPE_NS=858601   SEED_SCRAPE_ALLOCS=1644
SEED_SCRAPE_CONC_NS=16781639

echo "== micro benchmarks (${MICRO_TIME}) =="
MICRO=$(go test -run '^$' \
    -bench 'BenchmarkSimulatorMinute$|BenchmarkSimulatorMinuteWithInjector$|BenchmarkTSDBAppend$|BenchmarkTSDBAppendHandle$|BenchmarkLogRingAppend$|BenchmarkSLOEvaluateArmed$|BenchmarkUsageRecord$|BenchmarkMiddlewareRequest$|BenchmarkPredictColdCache$|BenchmarkPredictWarmCache$|BenchmarkCoalescedPredict$' \
    -benchmem -benchtime "$MICRO_TIME" .)
echo "$MICRO"

echo "== scheduler benchmarks (${MICRO_TIME}) =="
SCHED=$(go test -run '^$' \
    -bench 'BenchmarkSchedulerSubmit$|BenchmarkCalCacheHit$' \
    -benchmem -benchtime "$MICRO_TIME" ./internal/sched/)
echo "$SCHED"

echo "== profiler benchmarks (${MICRO_TIME}) =="
PROF=$(go test -run '^$' -bench 'BenchmarkProfilerFold$' \
    -benchmem -benchtime "$MICRO_TIME" ./internal/profiler/)
echo "$PROF"
# The profiler's serving overhead sits inside run-to-run noise, so the
# on/off pair runs three times each and the ratio uses the minima.
OVH=$(go test -run '^$' -bench 'BenchmarkPredictProfiler(Off|On)$' \
    -benchtime "$MICRO_TIME" -count=3 .)
echo "$OVH"

echo "== scrape contention benchmarks (${MICRO_TIME}) =="
SCRAPE=$(go test -run '^$' \
    -bench 'BenchmarkScraperScrapeOnce$|BenchmarkScrapeWithConcurrentReads$' \
    -benchmem -benchtime "$MICRO_TIME" ./internal/telemetry/)
echo "$SCRAPE"

echo "== sweep benchmarks (${SWEEP_COUNT} per parallelism) =="
SWEEP=$(go test -run '^$' -bench 'BenchmarkSweepParallel' -benchtime "$SWEEP_COUNT" .)
echo "$SWEEP"

# pick <output> <name> <field>: extract one benchmark statistic.
# Fields: 3 = ns/op, 5 = B/op, 7 = allocs/op.
pick() {
    echo "$1" | awk -v name="$2" -v f="$3" '$1 ~ "^"name"(-[0-9]+)?$" { print $f; exit }'
}

# pickmin <output> <name> <field>: minimum over repeated runs.
pickmin() {
    echo "$1" | awk -v name="$2" -v f="$3" \
        '$1 ~ "^"name"(-[0-9]+)?$" { if (min == "" || $f + 0 < min) min = $f + 0 } END { print min }'
}

SIM_NS=$(pick "$MICRO" BenchmarkSimulatorMinute 3)
SIM_B=$(pick "$MICRO" BenchmarkSimulatorMinute 5)
SIM_ALLOCS=$(pick "$MICRO" BenchmarkSimulatorMinute 7)
INJ_NS=$(pick "$MICRO" BenchmarkSimulatorMinuteWithInjector 3)
INJ_B=$(pick "$MICRO" BenchmarkSimulatorMinuteWithInjector 5)
INJ_ALLOCS=$(pick "$MICRO" BenchmarkSimulatorMinuteWithInjector 7)
APPEND_NS=$(pick "$MICRO" BenchmarkTSDBAppend 3)
APPEND_B=$(pick "$MICRO" BenchmarkTSDBAppend 5)
APPEND_ALLOCS=$(pick "$MICRO" BenchmarkTSDBAppend 7)
HANDLE_NS=$(pick "$MICRO" BenchmarkTSDBAppendHandle 3)
HANDLE_B=$(pick "$MICRO" BenchmarkTSDBAppendHandle 5)
HANDLE_ALLOCS=$(pick "$MICRO" BenchmarkTSDBAppendHandle 7)
LOGRING_NS=$(pick "$MICRO" BenchmarkLogRingAppend 3)
LOGRING_B=$(pick "$MICRO" BenchmarkLogRingAppend 5)
LOGRING_ALLOCS=$(pick "$MICRO" BenchmarkLogRingAppend 7)
SLOARMED_NS=$(pick "$MICRO" BenchmarkSLOEvaluateArmed 3)
SLOARMED_B=$(pick "$MICRO" BenchmarkSLOEvaluateArmed 5)
SLOARMED_ALLOCS=$(pick "$MICRO" BenchmarkSLOEvaluateArmed 7)
USAGE_NS=$(pick "$MICRO" BenchmarkUsageRecord 3)
USAGE_B=$(pick "$MICRO" BenchmarkUsageRecord 5)
USAGE_ALLOCS=$(pick "$MICRO" BenchmarkUsageRecord 7)
MW_NS=$(pick "$MICRO" BenchmarkMiddlewareRequest 3)
MW_ALLOCS=$(pick "$MICRO" BenchmarkMiddlewareRequest 7)
COLD_NS=$(pick "$MICRO" BenchmarkPredictColdCache 3)
WARM_NS=$(pick "$MICRO" BenchmarkPredictWarmCache 3)
WARM_ALLOCS=$(pick "$MICRO" BenchmarkPredictWarmCache 7)
COALESCED_NS=$(pick "$MICRO" BenchmarkCoalescedPredict 3)
SUBMIT_NS=$(pick "$SCHED" BenchmarkSchedulerSubmit 3)
SUBMIT_ALLOCS=$(pick "$SCHED" BenchmarkSchedulerSubmit 7)
CALHIT_NS=$(pick "$SCHED" BenchmarkCalCacheHit 3)
CALHIT_ALLOCS=$(pick "$SCHED" BenchmarkCalCacheHit 7)
FOLD_NS=$(pick "$PROF" BenchmarkProfilerFold 3)
FOLD_B=$(pick "$PROF" BenchmarkProfilerFold 5)
FOLD_ALLOCS=$(pick "$PROF" BenchmarkProfilerFold 7)
PROF_OFF_NS=$(pickmin "$OVH" BenchmarkPredictProfilerOff 3)
PROF_ON_NS=$(pickmin "$OVH" BenchmarkPredictProfilerOn 3)
SWEEP1_NS=$(pick "$SWEEP" BenchmarkSweepParallel1 3)
SWEEP8_NS=$(pick "$SWEEP" BenchmarkSweepParallel8 3)
SCRAPE_NS=$(pick "$SCRAPE" BenchmarkScraperScrapeOnce 3)
SCRAPE_ALLOCS=$(pick "$SCRAPE" BenchmarkScraperScrapeOnce 7)
SCRAPE_CONC_NS=$(pick "$SCRAPE" BenchmarkScrapeWithConcurrentReads 3)

GOMAXPROCS="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", a / b }'; }

cat > "$OUT" <<EOF
{
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "go": "$(go env GOVERSION)",
  "gomaxprocs": ${GOMAXPROCS},
  "note": "sweep outputs are byte-identical at every parallelism; sweep_parallel8 only beats sweep_parallel1 when GOMAXPROCS > 1",
  "simulator_minute": {
    "seed": {"ns_op": ${SEED_SIM_NS}, "b_op": ${SEED_SIM_B}, "allocs_op": ${SEED_SIM_ALLOCS}},
    "now":  {"ns_op": ${SIM_NS}, "b_op": ${SIM_B}, "allocs_op": ${SIM_ALLOCS}},
    "speedup": $(ratio "$SEED_SIM_NS" "$SIM_NS")
  },
  "simulator_minute_with_injector": {
    "now": {"ns_op": ${INJ_NS}, "b_op": ${INJ_B}, "allocs_op": ${INJ_ALLOCS}},
    "overhead_vs_no_injector": $(ratio "$INJ_NS" "$SIM_NS"),
    "budget": "fault-free injector overhead must stay under 1.05x at 0 allocs/op"
  },
  "tsdb_append": {
    "seed": {"ns_op": ${SEED_APPEND_NS}, "b_op": ${SEED_APPEND_B}, "allocs_op": ${SEED_APPEND_ALLOCS}},
    "now":  {"ns_op": ${APPEND_NS}, "b_op": ${APPEND_B}, "allocs_op": ${APPEND_ALLOCS}},
    "note": "canonical() now sorts on a stack buffer and sizes the builder exactly: 4 allocs/op at seed, 1 now; ns/op is machine-relative across recordings"
  },
  "predict_cache": {
    "cold_ns_op": ${COLD_NS},
    "warm_ns_op": ${WARM_NS},
    "warm_allocs_op": ${WARM_ALLOCS},
    "speedup": $(ratio "$COLD_NS" "$WARM_NS"),
    "budget": "warm (calibration-cache hit) sync predict must be at least 5x faster than cold recalibration"
  },
  "coalesced_predict": {
    "burst8_ns_op": ${COALESCED_NS},
    "vs_8_warm_predicts": $(awk -v c="$COALESCED_NS" -v w="$WARM_NS" 'BEGIN { printf "%.2f", c / (8 * w) }'),
    "note": "8 identical concurrent sync predicts through the scheduler; duplicates share the leader's in-flight run"
  },
  "sched_submit": {
    "ns_op": ${SUBMIT_NS},
    "allocs_op": ${SUBMIT_ALLOCS},
    "note": "scheduler enqueue + admission + worker dispatch overhead per run"
  },
  "calcache_hit": {
    "ns_op": ${CALHIT_NS},
    "allocs_op": ${CALHIT_ALLOCS},
    "budget": "cache-hit lookup must stay at 0 allocs/op"
  },
  "tsdb_append_handle": {
    "now": {"ns_op": ${HANDLE_NS}, "b_op": ${HANDLE_B}, "allocs_op": ${HANDLE_ALLOCS}},
    "speedup_vs_append": $(ratio "$APPEND_NS" "$HANDLE_NS")
  },
  "logring_append": {
    "now": {"ns_op": ${LOGRING_NS}, "b_op": ${LOGRING_B}, "allocs_op": ${LOGRING_ALLOCS}},
    "budget": "flight-recorder log ring append must stay at 0 allocs/op"
  },
  "slo_evaluate_armed": {
    "now": {"ns_op": ${SLOARMED_NS}, "b_op": ${SLOARMED_B}, "allocs_op": ${SLOARMED_ALLOCS}},
    "note": "one healthy SLO evaluation pass with the incident recorder hook armed — the idle-recorder overhead on the evaluator loop"
  },
  "usage_record": {
    "now": {"ns_op": ${USAGE_NS}, "b_op": ${USAGE_B}, "allocs_op": ${USAGE_ALLOCS}},
    "budget": "warm-principal Begin+Finish must stay at 0 allocs/op"
  },
  "middleware_request": {
    "ns_op": ${MW_NS},
    "allocs_op": ${MW_ALLOCS},
    "note": "the instrumented request path over a trivial handler, tenant attribution included — the accountant pair alone is usage_record, and the benchmark's usage.begin_finish_ns layer"
  },
  "profiler_fold": {
    "ns_op": ${FOLD_NS},
    "b_op": ${FOLD_B},
    "allocs_op": ${FOLD_ALLOCS},
    "budget": "steady-state fold of a 64-stack profile into a warm table must stay at 0 allocs/op"
  },
  "profiler_serving_overhead": {
    "predict_off_ns_op": ${PROF_OFF_NS},
    "predict_on_ns_op": ${PROF_ON_NS},
    "overhead_pct": $(awk -v on="$PROF_ON_NS" -v off="$PROF_OFF_NS" 'BEGIN { r = (on - off) / off * 100; if (r < 0) r = 0; printf "%.2f", r }'),
    "budget": "profiler-on warm predict must stay within 1% of profiler-off",
    "note": "capture loop runs at 10x time-compressed default duty (25ms CPU window per 1s interval vs 250ms per 10s); min of 3 runs each side; 0 means on was within noise of off"
  },
  "scrape_contention": {
    "seed": {"scrape_ns_op": ${SEED_SCRAPE_NS}, "scrape_allocs_op": ${SEED_SCRAPE_ALLOCS}, "scrape_under_reads_ns_op": ${SEED_SCRAPE_CONC_NS}},
    "now":  {"scrape_ns_op": ${SCRAPE_NS}, "scrape_allocs_op": ${SCRAPE_ALLOCS}, "scrape_under_reads_ns_op": ${SCRAPE_CONC_NS}},
    "speedup_under_concurrent_reads": $(ratio "$SEED_SCRAPE_CONC_NS" "$SCRAPE_CONC_NS"),
    "note": "ScrapeOnce previously took one exclusive TSDB writer-lock round-trip per sample (~800 per scrape); it now stages samples against a generation-swept handle cache and flushes them with a single AppendBatch lock acquisition, so concurrent query_range/downsample readers are no longer starved during scrapes"
  },
  "fig04_sweep": {
    "seed_sequential_ns": ${SEED_SWEEP_NS},
    "now_parallel1_ns": ${SWEEP1_NS},
    "now_parallel8_ns": ${SWEEP8_NS},
    "speedup_seed_to_parallel1": $(ratio "$SEED_SWEEP_NS" "$SWEEP1_NS"),
    "speedup_seed_to_parallel8": $(ratio "$SEED_SWEEP_NS" "$SWEEP8_NS"),
    "speedup_parallel1_to_parallel8": $(ratio "$SWEEP1_NS" "$SWEEP8_NS")
  }
}
EOF
echo "bench: wrote $OUT"

echo "== serving-tier load (caladriusbench, ${API_DURATION}) =="
go run ./cmd/caladriusbench -duration "$API_DURATION" -concurrency 8 \
    -contention "scrape_seed_ns_op=${SEED_SCRAPE_NS},scrape_now_ns_op=${SCRAPE_NS},scrape_seed_allocs_op=${SEED_SCRAPE_ALLOCS},scrape_now_allocs_op=${SCRAPE_ALLOCS},scrape_under_reads_seed_ns_op=${SEED_SCRAPE_CONC_NS},scrape_under_reads_now_ns_op=${SCRAPE_CONC_NS},scrape_under_reads_speedup=$(ratio "$SEED_SCRAPE_CONC_NS" "$SCRAPE_CONC_NS")" \
    -o "$API_OUT"
