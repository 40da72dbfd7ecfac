#!/usr/bin/env bash
# Non-test Go lines outside benchmark/, per package and in total — the
# number the net-negative acceptance criteria are judged on.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
    xargs -0 wc -l |
    awk '$2 != "total" { sub(/^\.\//, "", $2); d = $2; if (!sub(/\/[^\/]*$/, "", d)) d = "."; n[d] += $1; t += $1 }
         END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
