#!/usr/bin/env bash
# Full verification recipe: build, static checks (gofmt, vet, and no
# copy of a wire schema under cmd/), the whole test suite, every
# benchmark once (-benchtime 1x, output discarded: a benchmark that
# fails or panics fails verify instead of rotting), the whole
# suite again under the race detector (every package,
# not a hand-kept list: the chaos invariant suite's 3-seed × every-
# fault-kind matrix, the soak package and the daemon lifecycle test all
# run under -race here), the nested benchmark module's vet and tests —
# it compiles against internal/*, so a signature change that breaks it
# fails here and not in the benchmark driver — then a short fuzz smoke
# over the eight parsers that face untrusted input (config YAML — both
# the untyped yamlite layer and the typed settings on top of it — API
# range queries, Gremlin graph queries, pprof protobuf profiles, TSDB
# snapshot files, audit ledger snapshot files, chaos fault plans,
# incident manifests re-indexed at restart), two TSDB differentials
# (Downsample against its map-based reference, and every read and the
# snapshot bytes against the []Point store kept as the oracle) and the
# TSDB chunk codec's round trip (any non-decreasing run of instants and
# value bits decodes to itself),
# and finally a ~10s smoke soak: caladriussoak sends one fixed request
# cycle to an in-process daemon through a chaos metrics outage and
# exits non-zero unless the
# 5xx SLO fires and resolves, every response is accounted for and the
# process returns to its goroutine and heap baseline. Last, it
# prints scripts/loc.sh's non-test line counts, the number net-negative
# PRs quote, how many functions (and lines) and exported variables
# under internal/ only tests reach, from the reachability test in
# exports_test.go, and how many daemon settings there are (YAML keys and
# flags among them), from the settings table's shape test.
set -euo pipefail
cd "$(dirname "$0")/.."

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "verify: gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
# The CLI decodes and encodes the server's own types: a json:"…" tag in
# a non-test file under cmd/ is a hand-written copy of a wire schema.
if MIRRORS=$(grep -rln --include='*.go' --exclude='*_test.go' 'json:"' cmd/); then
    echo "verify: json struct tags in non-test files under cmd/ (decode into the server's own types):" >&2
    echo "$MIRRORS" >&2
    exit 1
fi
go build ./...
go vet ./...
go test ./...
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null
go test -race ./...
(cd benchmark && go vet ./... && go test ./...)
FUZZTIME="${VERIFY_FUZZTIME:-10s}"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME" ./internal/yamlite
go test -run '^$' -fuzz '^FuzzConfigParse$' -fuzztime "$FUZZTIME" ./internal/config
go test -run '^$' -fuzz '^FuzzParseQueryRange$' -fuzztime "$FUZZTIME" ./internal/api
go test -run '^$' -fuzz '^FuzzGremlinQuery$' -fuzztime "$FUZZTIME" ./internal/graph
go test -run '^$' -fuzz '^FuzzPprofParse$' -fuzztime "$FUZZTIME" ./internal/profiler
go test -run '^$' -fuzz '^FuzzReadSnapshot$' -fuzztime "$FUZZTIME" ./internal/tsdb
go test -run '^$' -fuzz '^FuzzAuditReadSnapshot$' -fuzztime "$FUZZTIME" ./internal/audit
go test -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime "$FUZZTIME" ./internal/chaos
go test -run '^$' -fuzz '^FuzzReadManifest$' -fuzztime "$FUZZTIME" ./internal/incident
go test -run '^$' -fuzz '^FuzzDownsampleMatchesReference$' -fuzztime "$FUZZTIME" ./internal/tsdb
go test -run '^$' -fuzz '^FuzzStoreMatchesOracle$' -fuzztime "$FUZZTIME" ./internal/tsdb
go test -run '^$' -fuzz '^FuzzChunkRoundTrip$' -fuzztime "$FUZZTIME" ./internal/tsdb
go run ./cmd/caladriussoak -duration 6s -slo-window 4s -settle 12s > /dev/null
echo "verify: all checks passed"
scripts/loc.sh
go test -run '^TestEveryFunctionNamesItsUser$' -v . | grep -o 'test-only functions: .*'
go test -run '^TestSettingsTableShape$' -v ./internal/config | grep -o 'settings: .*'
