#!/usr/bin/env bash
# Interleaved A/B run of Go micro-benchmarks.
#
#   bash scripts/bench-ab.sh BASE PKG BENCH [ROUNDS]
#   make bench-ab BASE=<rev> PKG=<pkg> BENCH=<regex> ROUNDS=10
#
# Run from anywhere inside the repository. BASE is checked out detached
# with `git worktree add` under a fresh temporary directory, which is
# removed on exit; PKG (one package, e.g. ./internal/h264/) is compiled
# there and in the working tree with `go test -c`, so uncommitted
# changes count. Each round runs both binaries once, from the package's
# directory in their own tree,
#
#   <pkg>.test -test.run '^$' -test.bench BENCH -test.benchmem -test.count 1
#
# and the order flips every round (base first on odd rounds, head first
# on even ones), so a host that drifts between speed regimes hits both
# sides alike.
#
# The summary gives, per benchmark: the base and head ns/op medians and
# ranges, the head's win count (strictly faster) out of the rounds, the
# two-sided sign-test p over the rounds that were not tied, and both
# sides' median B/op and allocs/op. A benchmark missing on one side is listed as
# such. The script exits 1 if either binary fails.
set -euo pipefail

usage() { echo "usage: $0 BASE PKG BENCH [ROUNDS]" >&2; exit 2; }
[ $# -ge 3 ] || usage
base=$1 pkg=$2 bench=$3 rounds=${4:-10}
case $rounds in '' | *[!0-9]* | 0) usage ;; esac

head=$(git rev-parse --show-toplevel)
cd "$head"
base_rev=$(git rev-parse --verify "$base^{commit}")

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

echo "bench-ab: base $base ($base_rev) vs working tree, package $pkg, benchmarks /$bench/, $rounds rounds"
(cd "$wt" && go test -c -o "$tmp/base.test" "$pkg")
go test -c -o "$tmp/head.test" "$pkg"

# run SIDE DIR ROUND: one pass of the benchmarks; appends
# "ROUND NAME NS_PER_OP ALLOCS_PER_OP BYTES_PER_OP" lines to $tmp/SIDE.vals.
run() {
	local side=$1 dir=$2 round=$3 out=$tmp/$1.$3.out
	(cd "$dir/$pkg" && "$tmp/$side.test" -test.run '^$' -test.bench "$bench" \
		-test.benchmem -test.count 1) >"$out" 2>&1 || {
		echo "bench-ab: $side binary failed in round $round:" >&2
		tail -n 20 "$out" >&2
		exit 1
	}
	awk -v r="$round" '/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		ns = ""; allocs = ""; bytes = ""
		for (i = 3; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			if ($(i + 1) == "allocs/op") allocs = $i
			if ($(i + 1) == "B/op") bytes = $i
		}
		if (ns != "") print r, name, ns, (allocs == "" ? "-" : allocs), (bytes == "" ? "-" : bytes)
	}' "$out" >>"$tmp/$side.vals"
}

: >"$tmp/base.vals"
: >"$tmp/head.vals"
for ((r = 1; r <= rounds; r++)); do
	if ((r % 2)); then
		run base "$wt" "$r"
		run head "$head" "$r"
	else
		run head "$head" "$r"
		run base "$wt" "$r"
	fi
	echo "round $r done"
done

echo
awk '
# median and range of the space-separated values in s
function stats(s,   v, n, i, j, t, m) {
	n = split(s, v, " ")
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	m = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
	return sprintf("%.6g %.6g %.6g", m, v[1], v[n])
}
# two-sided sign test: P(X <= min(w, l)) doubled, X ~ Binomial(w+l, 1/2)
function signp(w, l,   n, k, lo, s, c, p) {
	n = w + l
	if (n == 0) return 1
	lo = (w < l) ? w : l
	s = 0; c = 1
	for (k = 0; k <= lo; k++) { s += c; c = c * (n - k) / (k + 1) }
	p = 2 * s / 2 ^ n
	return p > 1 ? 1 : p
}
FNR == 1 { side++ }
{
	key = $2
	if (!(key in seen)) { seen[key] = 1; order[++nk] = key }
	if (side == 1) { bns[key] = bns[key] " " $3; bal[key] = bal[key] " " $4; bby[key] = bby[key] " " $5; b[key, $1] = $3 }
	else { hns[key] = hns[key] " " $3; hal[key] = hal[key] " " $4; hby[key] = hby[key] " " $5; h[key, $1] = $3 }
}
END {
	printf "%-40s %12s %23s %12s %23s %8s %6s %8s %13s %9s\n", "benchmark", "base_ns/op", "base_range", "head_ns/op", "head_range", "delta", "wins", "sign_p", "B/op", "allocs"
	for (i = 1; i <= nk; i++) {
		k = order[i]
		if (!(k in bns) || !(k in hns)) { printf "%-40s %12s\n", k, (k in bns) ? "(head missing)" : "(base missing)"; continue }
		split(stats(bns[k]), bs, " "); split(stats(hns[k]), hs, " ")
		w = 0; l = 0; n = 0
		for (r = 1; (k, r) in b || (k, r) in h; r++) {
			if (!((k, r) in b) || !((k, r) in h)) continue
			n++
			if (h[k, r] + 0 < b[k, r] + 0) w++
			else if (h[k, r] + 0 > b[k, r] + 0) l++
		}
		split(stats(bal[k]), ba, " "); split(stats(hal[k]), ha, " ")
		split(stats(bby[k]), bb, " "); split(stats(hby[k]), hb, " ")
		printf "%-40s %12s %23s %12s %23s %+7.1f%% %6s %8.3g %13s %9s\n", k, bs[1], bs[2] "-" bs[3], hs[1], hs[2] "-" hs[3],
			100 * (hs[1] - bs[1]) / bs[1], w "/" n, signp(w, l), bb[1] "->" hb[1], ba[1] "->" ha[1]
	}
}' "$tmp/base.vals" "$tmp/head.vals"
