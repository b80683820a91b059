#!/usr/bin/env bash
# The mutation gate: a regression test must still catch the bug it was
# written for. Each row of the table below plants one known bug — a file,
# a snippet that must occur in it exactly once, and the snippet's
# replacement — and names the package and top-level test that must then
# fail. For each row, in a temporary copy of the tree:
#
#   - the snippet must occur exactly once, so a row the code has moved away
#     from fails loudly instead of mutating nothing;
#   - the mutated package must still compile, so the row plants a bug, not
#     a build error;
#   - the named test must fail (a timeout counts; "no tests to run" does
#     not, since it exits 0).
#
# Usage, from the repository root:
#
#	scripts/mutants.sh            # every row (make mutants)
#	scripts/mutants.sh <row>...   # the named rows only
set -euo pipefail

GO=${GO:-go}

# row | file | snippet | replacement | package | test. Fields are split on
# "|", which no snippet or replacement may contain.
table() {
	cat <<'EOF'
read-index-wait|internal/node/read.go|return n.commits.WaitApplied(ri, clock.deadline())|return true|./internal/node|TestKVNodeStaleReadRegression
sim-unresolved-digest|internal/smr/smr.go|if IsDigestVote(decided) {|if false {|./internal/smr|TestClusterHostileDigests
wal-truncate-drops-all|internal/storage/wal.go|if instance > through {|if false {|./internal/storage|TestBackendWALTruncate
wal-reopen-forgets-records|internal/storage/wal.go|w.size = good|w.size = int64(len(walHeader))|./internal/storage|TestBackendWALTruncate
wal-skips-buffered-decision|internal/smr/commitqueue.go|q.replica.LogDecision(instance, decided)|if instance == q.nextCommit { q.replica.LogDecision(instance, decided) }|./internal/smr|TestRestoreKeepsOutOfOrderFrontier
submit-admits-replays|internal/smr/smr.go|if r.SM.SeqApplied(id.client, id.seq) {|if false {|./internal/smr|TestSnapshotInstallReseedsReplayWindow
batch-admits-twin-identity|internal/smr/command.go|slices.Contains(ids, id)|slices.Contains(ids[:0], id)|./internal/smr|TestEquivocatingClient
persist-drops-save-error|internal/smr/snapshot.go|m.r.reportStorageErr(fmt.Errorf("smr: persisting checkpoint %d: %w", snap.LastInstance, err))|_ = err|./internal/smr|TestSnapshotManagerPersistsByBytes
decision-fetch-waits-all|internal/transport/statetransfer.go|if first {|if false {|./internal/transport|TestFetchVerifiedDecisionIgnoresSilentPeer
runproc-ignores-release|internal/transport/transport.go|if n.instanceReleased(instance) {|if false {|./internal/transport|TestRunProcRunsUntilReleased
await-wrong-owner|internal/transport/payload.go|owner := Owner(instance, n.cfg.N)|owner := Owner(instance+1, n.cfg.N)|./internal/transport|TestPayloadAwaitOwner
adopt-ignores-weight|internal/node/node.go|return ax.Weight(body) > 0|return ax.Weight(body) >= 0|./internal/node|TestOwnerAdoptionRule
skip-first-forgets-phase-1|internal/core/core.go|p.history = p.history.Add(init, 1)|p.history = p.history.Add(init, 0)|.|TestByzantineMatrix
mark-forgets-deleted-key|internal/kv/kv.go|s.deleted = append(s.deleted, pair{key, c.old})|_ = key|./internal/smr|TestShadowCheckpointMatchesLiveState
mark-forgets-window|internal/kv/kv.go|if w.gen != s.gen {|if false {|./internal/smr|TestShadowCheckpointMatchesLiveState
EOF
}

root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

declare -A want=()
for name in "$@"; do
	want[$name]=1
done

failed=0
ran=0
while IFS='|' read -r name file snippet replacement pkg test extra; do
	[ -n "$name" ] || continue
	if [ "$#" -gt 0 ] && [ -z "${want[$name]:-}" ]; then
		continue
	fi
	ran=$((ran + 1))
	if [ -n "$extra" ] || [ -z "$test" ]; then
		echo "mutant $name: malformed row" >&2
		failed=1
		continue
	fi
	tree="$tmp/$name"
	mkdir -p "$tree"
	(cd "$root" && git ls-files -co --exclude-standard -z | tar -cf - --null -T -) | tar -xf - -C "$tree"
	count=$(SNIP="$snippet" perl -0777 -ne '$c = () = /\Q$ENV{SNIP}\E/g; print $c + 0' "$tree/$file")
	if [ "$count" != 1 ]; then
		echo "mutant $name: snippet occurs $count times in $file, want 1 (stale row?)" >&2
		failed=1
		continue
	fi
	SNIP="$snippet" REPL="$replacement" perl -0777 -pi -e 's/\Q$ENV{SNIP}\E/$ENV{REPL}/' "$tree/$file"
	if ! (cd "$tree" && "$GO" test -c -o /dev/null "$pkg") >"$tmp/$name.build" 2>&1; then
		echo "mutant $name: the mutated $pkg does not compile:" >&2
		cat "$tmp/$name.build" >&2
		failed=1
		continue
	fi
	if (cd "$tree" && "$GO" test -count=1 -timeout 300s -run "^${test}\$" "$pkg") >"$tmp/$name.out" 2>&1; then
		echo "mutant $name: SURVIVED — $test passes with \"$snippet\" replaced by \"$replacement\" in $file" >&2
		failed=1
	else
		caught=$(grep -E '^\s+\S+_test\.go:[0-9]+:|panic: test timed out' "$tmp/$name.out" | tail -1 || true)
		echo "mutant $name: caught by $test: ${caught:-$(grep -m1 FAIL "$tmp/$name.out")}" | sed 's/[[:space:]]\+/ /g'
	fi
	rm -rf "$tree"
done < <(table)

if [ "$#" -gt 0 ] && [ "$ran" -ne "$#" ]; then
	echo "mutants: $# row(s) named, $ran found" >&2
	failed=1
fi
exit $failed
