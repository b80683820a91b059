#!/usr/bin/env bash
# The race-detector run, split into named gates. Each gate runs a few named
# top-level tests of one or more packages under -race; every other test
# runs in one pass over ./... that skips exactly the gated names. The table
# below is the only list of gated names: ci.yml runs one step per gate and
# the Makefile's `race` target runs them all.
#
# A gate fails unless every test it names ran and passed its -count times.
# A bare `go test -run Name` prints "[no tests to run]" and exits 0 when
# Name no longer exists, so a renamed test would leave its gate passing
# vacuously. Here names are anchored, the run is verbose, and each name
# must print its own "--- PASS: <name>" line.
#
# Usage, from the repository root:
#
#	scripts/race-gates.sh            # the rest, then every gate (make race)
#	scripts/race-gates.sh rest       # ./... minus the gated names
#	scripts/race-gates.sh <gate>...  # the named gates only
set -euo pipefail

GO=${GO:-go}

# gate, -count, packages (comma-separated), test names.
table() {
	cat <<'EOF'
concurrent-submit-soak 1 . TestSMRConcurrentSubmitSoak
crash-recovery         1 ./internal/node TestKVNodeCrashRecovery
timeline               1 ./internal/node TestKVNodeTimeline
fabrication-sim        1 . TestSMRAuthenticatedSoak
fabrication-tcp        1 ./internal/node TestKVNodeAuthenticatedE2E
digest-soak            1 . TestSMRDigestSoak
payload-fetch          5 ./internal/transport TestPayloadClusterLostAnnounce TestPayloadClusterPinnedAtMinimumCap
decision-fetch         1 ./internal/node,./internal/transport TestKVNodeLaggardCatchUp TestFetchVerifiedDecisionIgnoresSilentPeer
owner-stopped          3 ./internal/node TestKVNodeOwnerStopped
laggard-tcp            3 ./internal/transport TestLaggardPastDecisionCatchesUp TestLoneDeciderDecidesInPhaseTwo
stale-read             1 ./internal/node TestKVNodeStaleReadRegression
power-cycle-tcp        1 ./internal/node TestKVNodePowerCycle
EOF
}

# anchored prints ^(a|b|...)$ for the given names.
anchored() {
	local IFS='|'
	echo "^($*)\$"
}

# gate runs one gate by name.
gate() {
	local row
	row=$(table | awk -v g="$1" '$1 == g')
	if [ -z "$row" ]; then
		echo "race-gates: no gate named $1" >&2
		return 1
	fi
	set -- $row
	local name=$1 count=$2 pkg=$3
	shift 3
	local out status=0
	out=$(mktemp)
	"$GO" test -race -count="$count" -run "$(anchored "$@")" -v ${pkg//,/ } | tee "$out" || status=$?
	for test in "$@"; do
		local passed
		passed=$(grep -c -- "^--- PASS: $test (" "$out" || true)
		if [ "$passed" -ne "$count" ]; then
			echo "race-gates: gate $name: $test passed $passed of $count runs in $pkg" >&2
			status=1
		fi
	done
	rm -f "$out"
	return "$status"
}

# rest runs every test no gate names.
rest() {
	"$GO" test -race -skip "$(anchored $(table | awk '{ for (i = 4; i <= NF; i++) print $i }'))" ./...
}

case "${1:-all}" in
all)
	rest
	for g in $(table | awk '{ print $1 }'); do
		gate "$g"
	done
	;;
rest) rest ;;
*)
	for g in "$@"; do
		gate "$g"
	done
	;;
esac
