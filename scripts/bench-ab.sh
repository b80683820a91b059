#!/usr/bin/env bash
# Paired A/B run of the repository benchmark (BENCHMARK.json): the working
# tree against a parent revision, on one workload. It checks the parent out
# into a temporary detached worktree, builds each side's bench binary with
# `go build -C <tree>/bench`, then runs PAIRS pairs of runs, alternating
# which side goes first, each binary from its own bench/ directory, every
# pair on its own seed (pair i uses seed i on both sides).
#
# It prints one line per run (the end-to-end metrics, `correct` and
# `failed`), then per metric each side's median and quartiles and how many
# pairs the change won (ties count for neither). A metric is marked GAIN
# when at least ten pairs ran, the change won at least nine tenths of them
# and the medians differ, in the metric's better direction, by more than
# the parent's interquartile range. It exits non-zero when any run failed
# its correctness check, failed an operation or printed no result.
#
# Usage, from the repository root:
#
#	scripts/bench-ab.sh <parent-rev> <workload> [pairs=10] [seconds=30]
#	make bench-ab PARENT=<rev> W=<workload> [PAIRS=10] [SECONDS=30]
#
# Run nothing else on the machine meanwhile: every number is CPU-bound.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-rev> <workload> [pairs] [seconds]" >&2
	exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
run_seconds=${4:-30}
GO=${GO:-go}

root=$(git rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
tmp=$(mktemp -d)
tree="$tmp/parent"
cleanup() {
	git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tree" "$parent_sha"
"$GO" build -C "$tree/bench" -o "$tmp/bench-parent" .
"$GO" build -C "$root/bench" -o "$tmp/bench-change" .

# The end-to-end metrics and their better direction, as "name better" lines.
metrics=$(awk '
	/"end_to_end"/ { on = 1 }
	/"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$root/BENCHMARK.json")
names=$(echo "$metrics" | awk '{ printf "%s ", $1 }')

# run <side> <pair>: one benchmark run; appends "pair side metric=value ...
# correct=C failed=F" to $tmp/results and prints it.
run() {
	local side=$1 pair=$2 dir out line
	if [ "$side" = parent ]; then dir="$tree/bench"; else dir="$root/bench"; fi
	out="$tmp/$side-$pair"
	mkdir -p "$tmp/out"
	(cd "$dir" && "$tmp/bench-$side" -workload "$workload" -seed "$pair" \
		-seconds "$run_seconds" -out "$tmp/out") >"$out.json" 2>"$out.log" || true
	line=$(tail -n 1 "$out.json" | awk -v names="$names" -v pair="$pair" -v side="$side" '
		function field(key,    s) {
			if (!match($0, "\"" key "\":[^,}]*")) return "?"
			s = substr($0, RSTART, RLENGTH)
			sub(/^[^:]*:/, "", s)
			return s
		}
		{
			out = sprintf("%d %s", pair, side)
			n = split(names, ns, " ")
			for (i = 1; i <= n; i++) {
				v = "?"
				if (match($0, "\"" ns[i] "\":\\{\"value\":[^,}]*")) {
					v = substr($0, RSTART, RLENGTH)
					sub(/.*:/, "", v)
				}
				out = out sprintf(" %s=%s", ns[i], v)
			}
			print out, "correct=" field("correct"), "failed=" field("failed")
		}')
	if [ -z "$line" ]; then
		line="$pair $side correct=? failed=?"
	fi
	echo "$line" >>"$tmp/results"
	echo "$line"
	case "$line" in
	*"correct=true failed=0") ;;
	*) echo "--- $side run of pair $pair (stderr tail)" >&2; tail -n 20 "$out.log" >&2 ;;
	esac
}

echo "bench-ab: $workload, $pairs pairs of ${run_seconds} s; parent $parent_sha vs the working tree"
for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$pair"
		run change "$pair"
	else
		run change "$pair"
		run parent "$pair"
	fi
done

echo
echo "$metrics" | while read -r name better; do
	awk -v name="$name" -v better="$better" '
		# quantile of the sorted a[1..n], linear between order statistics.
		function q(a, n, p,    h, lo) {
			h = 1 + (n - 1) * p
			lo = int(h)
			return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		function sort(a, n,    i, j, t) {
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		{
			for (i = 3; i <= NF; i++) {
				split($i, kv, "=")
				if (kv[1] == name && kv[2] != "?") val[$1, $2] = kv[2] + 0
			}
			seen[$1] = 1
		}
		END {
			np = nc = won = total = 0
			for (p in seen) {
				hp = ((p, "parent") in val); hc = ((p, "change") in val)
				if (hp) pv[++np] = val[p, "parent"]
				if (hc) cv[++nc] = val[p, "change"]
				if (!hp || !hc) continue
				total++
				d = val[p, "change"] - val[p, "parent"]
				if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) won++
			}
			if (np == 0 || nc == 0) { printf "%-15s no results\n", name; exit }
			sort(pv, np); sort(cv, nc)
			pm = q(pv, np, 0.5); cm = q(cv, nc, 0.5); iqr = q(pv, np, 0.75) - q(pv, np, 0.25)
			gain = total >= 10 && won >= 0.9 * total && (better == "lower" ? pm - cm : cm - pm) > iqr
			printf "%-15s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  won %d of %d (%s better)%s\n",
				name, pm, q(pv, np, 0.25), q(pv, np, 0.75), cm, q(cv, nc, 0.25), q(cv, nc, 0.75),
				won, total, better, gain ? "  GAIN" : ""
		}' "$tmp/results"
done

if grep -qv 'correct=true failed=0$' "$tmp/results"; then
	echo "bench-ab: some runs were incorrect, failed operations or printed no result" >&2
	exit 1
fi
