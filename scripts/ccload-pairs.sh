#!/usr/bin/env bash
# Runs alternating pairs of the load harness (cmd/ccload) on one workload:
# <ref>, any git revision, against the working tree. Both sides are built
# with GOFLAGS=-trimpath, which also reaches the ccserve build ccload does
# itself, so the two checkouts' different source paths cannot move a number.
# The side that runs first alternates pair by pair.
#
#   scripts/ccload-pairs.sh <ref> <workload> [N=10] [seed=23]
#
# For every end-to-end metric it prints each side's median and quartiles, the
# change of the median, how many pairs the working tree won (ties count for
# neither) and the metric's bound from BENCHMARK.json, then each side's
# failed operations and the runs that did not report correct answers. <ref>
# is exported with git archive into a temporary directory removed on exit;
# every run's closing JSON line stays in
# .bench_build/pairs-<workload>-<seed>/{base,head}-<pair>.json.
set -euo pipefail
if [ $# -lt 2 ]; then
	sed -n '2,16p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 n=${3:-10} seed=${4:-23}
cd "$(dirname "$0")/.."
root=$PWD
export GOFLAGS=-trimpath

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$ref" | tar -x -C "$base"
out=$root/.bench_build/pairs-$workload-$seed
rm -rf "$out"
mkdir -p "$out"
(cd "$base" && go build -o "$out/ccload-base" ./cmd/ccload)
go build -o "$out/ccload-head" ./cmd/ccload

# run <side> <pair>: one ccload run from that side's tree, keeping its JSON.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$base
	(cd "$dir" && "$out/ccload-$1" -workload "$workload" -seed "$seed") | tail -n 1 >"$out/$1-$2.json"
}
for ((i = 0; i < n; i++)); do
	if ((i % 2 == 0)); then
		run base "$i"
		run head "$i"
	else
		run head "$i"
		run base "$i"
	fi
	echo "pair $((i + 1))/$n" >&2
done

# One "side pair metric value" line per measured metric, then the summary.
for f in "$out"/base-*.json "$out"/head-*.json; do
	side=${f##*/}
	pair=${side#*-}
	pair=${pair%.json}
	side=${side%%-*}
	grep -o '"failed":[0-9]*' "$f" | sed "s/\"failed\":/$side $pair failed /"
	grep -q '"correct":true' "$f" || echo "$side $pair incorrect 1"
	grep -o '"[a-z_]*":{"value":[^,]*' "$f" |
		sed -E "s/\"([a-z_]*)\":\{\"value\":(.*)/$side $pair \1 \2/"
done | awk -v spec="$root/BENCHMARK.json" -v ref="$ref" -v wl="$workload" -v seed="$seed" '
function quantile(a, k, p,    h, lo) {
	h = p * (k - 1)
	lo = int(h)
	return lo + 1 < k ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
}
function sorted(side, m, a,    i, j, k, t) {
	k = 0
	for (i = 0; i < pairs; i++)
		if ((side, i, m) in v)
			a[k++] = v[side, i, m]
	for (i = 1; i < k; i++)
		for (j = i; j > 0 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
	return k
}
BEGIN {
	while ((getline line < spec) > 0) {
		if (line ~ /"name"/) { name = line; gsub(/.*"name": *"|".*/, "", name) }
		if (line ~ /"better"/) { b = line; gsub(/.*"better": *"|".*/, "", b); better[name] = b }
		if (line ~ /"bound"/) { b = line; gsub(/.*"bound": *|[ ,]*$/, "", b); bound[name] = b }
	}
}
$3 == "failed" { failed[$1] += $4; next }
$3 == "incorrect" { incorrect[$1]++; next }
{ v[$1, $2, $3] = $4; if ($2 + 1 > pairs) pairs = $2 + 1; if (!($3 in seen)) { seen[$3] = 1; names[++nn] = $3 } }
END {
	printf "%s, seed %s: %s (base) against the working tree (head), %d pairs\n", wl, seed, ref, pairs
	printf "%-22s %-36s %-36s %8s %6s %6s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "wins", "bound"
	for (x = 1; x <= nn; x++) {
		m = names[x]
		if (!(m in better)) continue
		kb = sorted("base", m, ab); kh = sorted("head", m, ah)
		mb = quantile(ab, kb, 0.5); mh = quantile(ah, kh, 0.5)
		wins = 0
		for (i = 0; i < pairs; i++) {
			if (!(("base", i, m) in v) || !(("head", i, m) in v)) continue
			d = v["head", i, m] - v["base", i, m]
			if ((better[m] == "lower" && d < 0) || (better[m] == "higher" && d > 0)) wins++
		}
		printf "%-22s %-36s %-36s %7.1f%% %3d/%-2d %6s\n", m,
			sprintf("%.5g [%.5g, %.5g]", mb, quantile(ab, kb, 0.25), quantile(ab, kb, 0.75)),
			sprintf("%.5g [%.5g, %.5g]", mh, quantile(ah, kh, 0.25), quantile(ah, kh, 0.75)),
			mb != 0 ? 100 * (mh - mb) / mb : 0, wins, pairs, bound[m]
	}
	printf "failed operations: base %d, head %d; runs not correct: base %d, head %d\n", failed["base"], failed["head"], incorrect["base"], incorrect["head"]
}'
