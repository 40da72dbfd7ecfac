#!/usr/bin/env bash
# A/B comparison of two revisions on one benchmark workload.
#
#   scripts/ab.sh <rev-a> <rev-b> [--pairs N] [--workload W]
#
# rev-a is the base (the parent), rev-b the change. Both are checked out
# as git worktrees in a scratch directory under $TMPDIR, and each side
# runs its own `benchmark/run.sh --workload W --seed i` for i = 1..N
# (N = 10, W = figures-batch by default), the two sides alternating
# which runs first. The last JSON line of every run is read; for every
# end-to-end metric of BENCHMARK.json the script prints each side's
# median and quartiles, the pairs b won and lost, and a verdict:
#
#   better        over at least 10 pairs, b wins at least 9 of every
#                 10 (ties count for neither side) and its median beats
#                 a's by more than a's interquartile range;
#   unresolved    otherwise, when a's interquartile range is wider than
#                 the metric's bound, relative to a's median;
#   worse         otherwise, when b's median is worse than a's by more
#                 than the bound (relative, as `benchmark/run.sh
#                 compare` reads it);
#   within bound  otherwise.
#
# Below that table come the CPU twins of the wall metrics, read from
# the notes each run's log already carries: figures-batch's CPU per
# sequential suite, a serving workload's daemon CPU per paced request
# and its closed loop's median answers/s. Each shows both sides'
# median and quartiles and the pairs b won; twins do not enter the
# verdict.
#
# Failed operations are printed per side as failed/attempted. The
# script edits nothing under benchmark/ and leaves no worktree behind.
# It needs git, jq and awk.
#
# Power check: a revision against itself must never read "worse"; see
# README *Development* for the run that checked it and its N.
set -euo pipefail

usage() {
	echo "usage: scripts/ab.sh <rev-a> <rev-b> [--pairs N] [--workload W]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
rev_a=$1 rev_b=$2
shift 2
pairs=10 workload=figures-batch
while [ $# -gt 0 ]; do
	case $1 in
	--pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
	--workload) [ $# -ge 2 ] || usage; workload=$2; shift 2 ;;
	*) usage ;;
	esac
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: --pairs $pairs: want a positive count" >&2; exit 2; }
command -v jq >/dev/null || { echo "ab.sh: needs jq" >&2; exit 1; }

repo=$(git rev-parse --show-toplevel)
sha_a=$(git -C "$repo" rev-parse --verify "$rev_a^{commit}")
sha_b=$(git -C "$repo" rev-parse --verify "$rev_b^{commit}")
dir=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
	git -C "$repo" worktree remove --force "$dir/a" 2>/dev/null || true
	git -C "$repo" worktree remove --force "$dir/b" 2>/dev/null || true
	git -C "$repo" worktree prune
	rm -rf "$dir"
}
trap cleanup EXIT
git -C "$repo" worktree add --quiet --detach "$dir/a" "$sha_a"
git -C "$repo" worktree add --quiet --detach "$dir/b" "$sha_b"
echo "ab.sh: a = $rev_a (${sha_a:0:12}), b = $rev_b (${sha_b:0:12}), workload $workload, $pairs pairs"

# run <side> <seed> writes the run's last JSON line to $dir/<side>.<seed>.json.
run() {
	local log="$dir/$1.$2.log"
	if ! (cd "$dir/$1" && bash benchmark/run.sh --workload "$workload" --seed "$2") >"$log" 2>&1; then
		echo "ab.sh: side $1, seed $2 failed:" >&2
		tail -20 "$log" >&2
		exit 1
	fi
	grep '^{' "$log" | tail -1 >"$dir/$1.$2.json"
	echo "  seed $2 $1: $(jq -c '[.metrics | to_entries[] | "\(.key)=\(.value.value)"]' "$dir/$1.$2.json")"
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then run a "$i"; run b "$i"; else run b "$i"; run a "$i"; fi
done

# values <side> <metric> prints the side's values, one per seed, in seed order.
values() {
	for ((i = 1; i <= pairs; i++)); do
		jq -r --arg m "$2" '.metrics[$m].value' "$dir/$1.$i.json"
	done
}
# stats prints the median, q1 and q3 of stdin's numbers, interpolated
# at (n+1)/4 as the benchmark's own summaries are.
stats() {
	sort -g | awk '{ s[++n] = $1 }
		function at(i,   j, d) {
			if (n == 1) return s[1]
			j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
			d = i * (n + 1) - j * 4
			return (s[j] * (4 - d) + s[j + 1] * d) / 4
		}
		END { printf "%.6g %.6g %.6g\n", at(2), at(1), at(3) }'
}

printf '\n%-20s %-6s %12s %12s %12s   %12s %12s %12s   %-9s %s\n' metric better "a median" "a q1" "a q3" "b median" "b q1" "b q3" "b won" verdict
jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$dir/a/BENCHMARK.json" | while read -r name better bound; do
	read -r ma qa1 qa3 < <(values a "$name" | stats)
	read -r mb qb1 qb3 < <(values b "$name" | stats)
	verdict=$(paste <(values a "$name") <(values b "$name") | awk -v better="$better" -v bound="$bound" \
		-v ma="$ma" -v qa1="$qa1" -v qa3="$qa3" -v mb="$mb" -v n="$pairs" '
		{ d = $2 - $1; if (better == "higher") d = -d; if (d < 0) won++; else if (d > 0) lost++ }
		END {
			gain = mb - ma; if (better == "lower") gain = -gain
			worse = (ma == 0) ? 0 : -gain / (ma < 0 ? -ma : ma)
			spread = (ma == 0) ? 0 : (qa3 - qa1) / (ma < 0 ? -ma : ma)
			if (n >= 10 && won * 10 >= 9 * n && gain > qa3 - qa1) v = "better"
			else if (spread > bound) v = sprintf("unresolved (a spread %.3f > bound %.2f)", spread, bound)
			else if (worse > bound) v = sprintf("worse by %.3f (bound %.2f)", worse, bound)
			else v = sprintf("within bound (%+.3f, bound %.2f)", worse, bound)
			printf "%d/%d lost %d  %s\n", won, n, lost, v
		}')
	printf '%-20s %-6s %12s %12s %12s   %12s %12s %12s   %s\n' "$name" "$better" "$ma" "$qa1" "$qa3" "$mb" "$qb1" "$qb3" "$verdict"
done
# note <side> <sed script> prints the number the script extracts from
# each run's "note:" lines, one per seed, in seed order.
note() {
	for ((i = 1; i <= pairs; i++)); do
		sed -n "$2" "$dir/$1.$i.log" | tail -1
	done
}
# The CPU twins of the wall metrics, read from the notes the benchmark
# already prints; they inform the reader and do not enter the verdict.
twins=(
	"cpu_us_per_suite lower s/^note: suite wall: .*CPU per sequential suite \([0-9.]*\) us$/\1/p"
	"daemon_cpu_us_per_req lower s/^note: paced: .*daemon CPU \([0-9.]*\) us\/request$/\1/p"
	"closed_loop_answers_s higher s/^note: closed loop: .*, median \([0-9.]*\)$/\1/p"
)
header=0
for twin in "${twins[@]}"; do
	read -r name better script <<<"$twin"
	[ "$(note a "$script" | wc -l)" -eq "$pairs" ] && [ "$(note b "$script" | wc -l)" -eq "$pairs" ] || continue
	if ((!header)); then
		printf '\nCPU twins (not in the verdict)\n%-22s %-6s %12s %12s %12s   %12s %12s %12s   %s\n' twin better "a median" "a q1" "a q3" "b median" "b q1" "b q3" "b won"
		header=1
	fi
	read -r ma qa1 qa3 < <(note a "$script" | stats)
	read -r mb qb1 qb3 < <(note b "$script" | stats)
	won=$(paste <(note a "$script") <(note b "$script") | awk -v better="$better" -v n="$pairs" '
		{ d = $2 - $1; if (better == "higher") d = -d; if (d < 0) won++; else if (d > 0) lost++ }
		END { printf "%d/%d lost %d\n", won, n, lost }')
	printf '%-22s %-6s %12s %12s %12s   %12s %12s %12s   %s\n' "$name" "$better" "$ma" "$qa1" "$qa3" "$mb" "$qb1" "$qb3" "$won"
done
for side in a b; do
	cat "$dir/$side".*.json | jq -s -r --arg s "$side" '"failed/attempted " + $s + ": \(map(.failed) | add)/\(map(.attempted) | add), correct in \(map(select(.correct)) | length) of \(length) runs"'
done
