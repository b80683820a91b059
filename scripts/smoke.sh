#!/usr/bin/env bash
# End-to-end smoke test of the shipped binaries: builds kvnode and kvctl
# into a temporary directory, starts four durable kvnodes on loopback
# (default flags apart from id, ports, peers, -data-dir and a checkpoint
# every 2 instances), drives kvctl against them, then kill -9s all four,
# restarts them from their data directories and checks that the cluster
# kept its state and still commits. Fails on any mismatch. Run from the
# repository root: `make smoke`.
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do
		kill "$pid" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
	echo "smoke: $*" >&2
	for log in "$tmp"/kvnode*.log; do
		echo "--- $log (tail)" >&2
		tail -n 20 "$log" >&2
	done
	exit 1
}

"$GO" build -o "$tmp/kvnode" ./cmd/kvnode
"$GO" build -o "$tmp/kvctl" ./cmd/kvctl

peers=127.0.0.1:17310,127.0.0.1:17311,127.0.0.1:17312,127.0.0.1:17313
clients=127.0.0.1:17320,127.0.0.1:17321,127.0.0.1:17322,127.0.0.1:17323

# start launches the four nodes on their data directories and waits until
# each client port answers LOGLEN with a number.
start() {
	pids=()
	for i in 0 1 2 3; do
		"$tmp/kvnode" -id "$i" -listen "127.0.0.1:1731$i" -client "127.0.0.1:1732$i" \
			-peers "$peers" -data-dir "$tmp/member-$i" -snapshot-interval 2 \
			>>"$tmp/kvnode$i.log" 2>&1 &
		pids+=($!)
	done
	for i in 0 1 2 3; do
		for _ in $(seq 100); do
			if [[ "$("$tmp/kvctl" -nodes "127.0.0.1:1732$i" loglen)" =~ ^[0-9]+$ ]]; then
				continue 2
			fi
			sleep 0.1
		done
		fail "kvnode $i never answered on 127.0.0.1:1732$i"
	done
}

# expect <want> <kvctl args...>: kvctl's output must equal want.
expect() {
	local want=$1 got
	shift
	got=$(timeout 60 "$tmp/kvctl" -nodes "$clients" "$@" 2>&1) || fail "kvctl $*: exit $? ($got)"
	[[ "$got" == "$want" ]] || fail "kvctl $*: got '$got', want '$want'"
}

start
expect "OK 2 keys" mset a 1 b 2
expect 1 get a
expect OK del a
expect NOTFOUND get a
stats=$(timeout 60 "$tmp/kvctl" -nodes "$clients" stats) || fail "kvctl stats: exit $?"
grep -q '^g0\.smr\.commits=' <<<"$stats" || fail "kvctl stats has no g0.smr.commits= line"
expect OK set c 3
expect "OK 2 keys" mset d 4 e 5

# Checkpoints truncate the WAL: wait until node 0 has rewritten its log.
for attempt in $(seq 100); do
	stats=$(timeout 60 "$tmp/kvctl" -nodes "$clients" stats) || fail "kvctl stats: exit $?"
	grep -q '^g0\.storage\.wal\.compactions=[1-9]' <<<"$stats" && break
	((attempt < 100)) || fail "node 0 never truncated its WAL"
	sleep 0.1
done

# Power cycle: every node dies at once and restarts from its directory.
{
	kill -9 "${pids[@]}"
	wait "${pids[@]}" || true
} 2>/dev/null
start
expect 2 get b
expect 3 get c
expect 5 get e
expect NOTFOUND get a
expect OK set f 6
expect 6 get f
echo "smoke: ok"
