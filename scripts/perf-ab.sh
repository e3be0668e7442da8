#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark (perfbench/run.sh).
#
#   bash scripts/perf-ab.sh BASE WORKLOAD [PAIRS]
#   make perf-ab BASE=<rev> WORKLOAD=<name> PAIRS=10
#
# Run from anywhere inside the repository. BASE is checked out detached
# with `git worktree add` under a fresh temporary directory, which is
# removed on exit. The other side is the current working tree, so
# uncommitted changes count. Each pair runs
#
#   bash perfbench/run.sh --workload WORKLOAD --seed 1 --seconds S --trace 0
#
# once in each tree, from that tree's root, where S is BENCHMARK.json's
# run_seconds (30); the order flips every pair (base first on odd pairs,
# head first on even ones), so a host that drifts between speed regimes
# hits both sides alike.
#
# Every run is reported with its exit code, `correct` and `failed` (and,
# on sim_video, its fingerprint and concealed-frame count). The
# summary gives, for each end-to-end metric that BENCHMARK.json lists
# (in the working tree): the base and head medians, the base's
# interquartile range, the number of pairs the head won (strictly
# better in the metric's direction) and the two-sided sign-test p over
# the pairs that were not tied. The script exits 1 if any run
# exited nonzero, reported correct=false or failed > 0.
set -euo pipefail

usage() { echo "usage: $0 BASE WORKLOAD [PAIRS]" >&2; exit 2; }
[ $# -ge 2 ] || usage
base=$1 workload=$2 pairs=${3:-10}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

head=$(git rev-parse --show-toplevel)
cd "$head"
base_rev=$(git rev-parse --verify "$base^{commit}")

# The benchmark's run length, from BENCHMARK.json.
seconds=$(tr -d ' \n\t' < BENCHMARK.json | grep -o '"run_seconds":[0-9]*' | cut -d: -f2 || true)
[ -n "$seconds" ] || { echo "perf-ab: no run_seconds in BENCHMARK.json" >&2; exit 1; }

tmp=$(mktemp -d)
wt=$tmp/base
cleanup() {
	git -C "$head" worktree remove --force "$wt" >/dev/null 2>&1 || true
	rm -rf "$tmp"
	git -C "$head" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --detach "$wt" "$base_rev" >/dev/null 2>&1

# End-to-end metric names and directions, in BENCHMARK.json order.
metrics=$(tr -d ' \n\t' < BENCHMARK.json |
	sed 's/.*"end_to_end":\[//; s/\].*//' |
	grep -o '"name":"[^"]*"[^}]*"better":"[^"]*"' |
	sed 's/"name":"\([^"]*\)".*"better":"\([^"]*\)"/\1 \2/')
[ -n "$metrics" ] || { echo "perf-ab: no end_to_end metrics in BENCHMARK.json" >&2; exit 1; }

bad=0
# run SIDE DIR PAIR: one benchmark run; appends "PAIR METRIC VALUE" lines
# to $tmp/SIDE.vals and prints the run's status line.
run() {
	local side=$1 dir=$2 pair=$3 code=0 out=$tmp/$1.$3.out
	(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed 1 \
		--seconds "$seconds" --trace 0) >"$out" 2>"$tmp/$side.$pair.err" || code=$?
	local res correct failed extra
	res=$(tail -n 1 "$out")
	correct=$(printf '%s' "$res" | grep -o '"correct":[a-z]*' | cut -d: -f2 || true)
	failed=$(printf '%s' "$res" | grep -o '"failed":[0-9]*' | cut -d: -f2 || true)
	# sim_video's detail line carries its checkpoint fingerprint and
	# concealed-frame count.
	extra=$(tail -n 2 "$out" | head -n 1 | grep -o '"fingerprint":"[^"]*"\|"concealed":[0-9]*' |
		tr -d '"' | tr '\n' ' ' || true)
	printf 'pair %2d %-4s exit=%d correct=%s failed=%s %s\n' "$pair" "$side" "$code" \
		"${correct:-?}" "${failed:-?}" "$extra"
	if [ "$code" != 0 ] || [ "$correct" != true ] || [ "$failed" != 0 ]; then
		bad=1
		tail -n 5 "$tmp/$side.$pair.err" >&2 || true
	fi
	local name v
	while read -r name _; do
		v=$(printf '%s' "$res" | grep -o "\"$name\":{\"value\":[^,}]*" | sed 's/.*://' || true)
		if [ -n "$v" ]; then
			echo "$pair $name $v" >>"$tmp/$side.vals"
		fi
	done <<<"$metrics"
}

echo "perf-ab: base $base ($base_rev) vs working tree, workload $workload, $pairs pairs of ${seconds}s runs"
: >"$tmp/base.vals"
: >"$tmp/head.vals"
for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		run base "$wt" "$p"
		run head "$head" "$p"
	else
		run head "$head" "$p"
		run base "$wt" "$p"
	fi
done

# quartiles: sorted values on stdin -> "q1 median q3" (linear
# interpolation between order statistics).
quartiles() {
	sort -g | awk '{ v[NR] = $1 }
	function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1 > NR ? NR : i + 1] - v[i]) }
	END { if (NR) printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

echo
printf '%-20s %14s %14s %9s %14s %9s %8s\n' metric base_median head_median delta base_iqr head_wins sign_p
while read -r name better; do
	read -r bq1 bmed bq3 <<<"$(awk -v m="$name" '$2 == m { print $3 }' "$tmp/base.vals" | quartiles)"
	read -r _ hmed _ <<<"$(awk -v m="$name" '$2 == m { print $3 }' "$tmp/head.vals" | quartiles)"
	[ -n "${bmed:-}" ] && [ -n "${hmed:-}" ] || { printf '%-20s %14s\n' "$name" "(missing)"; continue; }
	# Head wins (strictly better) out of the pairs, and the two-sided
	# sign-test p over the pairs that were not tied.
	read -r wins signp <<<"$(awk -v m="$name" -v better="$better" '
		NR == FNR && $2 == m { b[$1] = $3 }
		NR != FNR && $2 == m { h[$1] = $3 }
		END {
			for (p in b) if (p in h) {
				n++
				if (h[p] == b[p]) continue
				if ((better == "lower") == (h[p] < b[p])) w++; else l++
			}
			lo = (w < l) ? w : l; s = 0; c = 1
			for (k = 0; k <= lo; k++) { s += c; c = c * (w + l - k) / (k + 1) }
			pv = (w + l) ? 2 * s / 2 ^ (w + l) : 1
			printf "%d/%d %.3g\n", w, n, (pv > 1 ? 1 : pv)
		}' "$tmp/base.vals" "$tmp/head.vals")"
	delta=$(awk -v b="$bmed" -v h="$hmed" 'BEGIN { if (b == 0) print "n/a"; else printf "%+.1f%%", 100 * (h - b) / b }')
	iqr=$(awk -v a="$bq1" -v c="$bq3" 'BEGIN { printf "%.6g", c - a }')
	printf '%-20s %14s %14s %9s %14s %9s %8s\n' "$name" "$bmed" "$hmed" "$delta" "$iqr" "$wins" "$signp"
done <<<"$metrics"
exit "$bad"
