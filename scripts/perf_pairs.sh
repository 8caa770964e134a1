#!/bin/sh
# Alternating perfbench pairs of a base ref against the working tree.
#
#   scripts/perf_pairs.sh <base-ref> <workload> <pairs> <seconds> [first-seed]
#   make perf-pairs BASE=<ref> WORKLOAD=<w> PAIRS=<n> SECONDS=<s> [SEED=<s>]
#
# Checks BASE out in a detached git worktree under $TMPDIR (default
# /tmp), then runs `bash perfbench/run.sh --workload W --seed S --seconds
# N --trace 0` from each tree, pair by pair: pair i runs seed first-seed+i−1
# (default first seed 1) on both sides, and the side that runs first
# alternates, BASE first in the first pair, because on a shared host the
# side that runs first tends to win.  Each tree builds its own perfbench
# (run.sh keeps the binary and the Go build cache in its .bench_build/).
# It prints every run's line, then per end-to-end metric the median
# [quartiles] of both sides, the change of the medians and the pairs the
# working tree won, the table EXPERIMENTS.md uses, and removes the
# worktree.  A run that fails or reports correct:false stops the script.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 <base-ref> <workload> <pairs> <seconds> [first-seed]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seconds=$4 seed0=${5:-1}
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "$0: unknown ref $base" >&2
	exit 2
}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
wt="$tmp/base"
cleanup() {
	git worktree remove --force "$wt" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
trap 'exit 1' INT TERM
git worktree add --quiet --detach "$wt" "$base"
here=$(pwd)

# run SIDE DIR SEED runs one benchmark in DIR and appends
# "SIDE SEED setup_s episodes_per_s live_heap_mb" to $tmp/runs.
run() {
	line=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>"$tmp/stderr") || {
		cat "$tmp/stderr" >&2
		echo "$0: $1 run at seed $3 failed" >&2
		exit 1
	}
	echo "$1 seed $3: $line"
	case $line in
	*'"correct":true'*) ;;
	*)
		echo "$0: $1 run at seed $3 is not correct" >&2
		exit 1
		;;
	esac
	vals=""
	for m in setup_s episodes_per_s live_heap_mb; do
		vals="$vals $(echo "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")"
	done
	echo "$1 $3$vals" >>"$tmp/runs"
}

i=0
while [ "$i" -lt "$pairs" ]; do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 0 ]; then
		run base "$wt" "$seed"
		run change "$here" "$seed"
	else
		run change "$here" "$seed"
		run base "$wt" "$seed"
	fi
	i=$((i + 1))
done

echo
echo "$workload, $pairs alternating ${seconds} s pairs, seeds $seed0–$((seed0 + pairs - 1)), base $base first in the first pair."
echo "Median [quartiles], pairs the working tree won:"
echo
echo "| metric | base | change | wins |"
echo "|---|---|---|---|"
# Columns 3–5 of runs hold setup_s, episodes_per_s and live_heap_mb;
# setup_s is shown in ms.  Quartiles interpolate linearly between ranks.
awk '
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function q(a, n, p,    h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
function stat(a, n, scale, f,    s, k) {
	for (k = 1; k <= n; k++) s[k] = a[k] * scale
	sort(s, n)
	med = q(s, n, 0.5); q1 = q(s, n, 0.25); q3 = q(s, n, 0.75)
	return sprintf(f " [" f ", " f "]", med, q1, q3)
}
{
	c = $1 == "base" ? ++nb : ++nc
	for (m = 3; m <= 5; m++) v[$1, m, c] = $m
}
END {
	name[3] = "setup_s (ms)"; scale[3] = 1000; fmt[3] = "%.3f"; lower[3] = 1
	name[4] = "episodes_per_s"; scale[4] = 1; fmt[4] = "%.0f"; lower[4] = 0
	name[5] = "live_heap_mb"; scale[5] = 1; fmt[5] = "%.4f"; lower[5] = 1
	for (m = 3; m <= 5; m++) {
		wins = 0
		for (k = 1; k <= nb; k++) {
			b[k] = v["base", m, k]; ch[k] = v["change", m, k]
			if (lower[m] ? ch[k] < b[k] : ch[k] > b[k]) wins++
		}
		sb = stat(b, nb, scale[m], fmt[m]); mb = med; iqr[m] = q3 - q1
		sc = stat(ch, nc, scale[m], fmt[m]); mc = med; gain[m] = mc - mb
		printf "| %s | %s | %s (%+.1f%%) | %d/%d |\n", name[m], sb, sc, 100 * (mc - mb) / mb, wins, nb
	}
	printf "\nepisodes_per_s: the medians differ by %+.0f; the base interquartile spread is %.0f.\n", gain[4], iqr[4]
	printf "Per pair, episodes_per_s:"
	for (k = 1; k <= nb; k++)
		printf " %+.1f%%", 100 * (v["change", 4, k] - v["base", 4, k]) / v["base", 4, k]
	printf "\n"
}' "$tmp/runs"
