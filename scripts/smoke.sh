#!/usr/bin/env bash
# End-to-end smoke test of the shipped binaries: builds kvnode and kvctl
# into a temporary directory, starts four kvnodes on loopback with default
# flags apart from id, ports and peers, drives kvctl against them and fails
# on any mismatch. Run from the repository root: `make smoke`.
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
for i in 0 1 2 3; do
	"$tmp/kvnode" -id "$i" -listen "127.0.0.1:1731$i" -client "127.0.0.1:1732$i" \
		-peers "$peers" >"$tmp/kvnode$i.log" 2>&1 &
	pids+=($!)
done

# A node is up once its client port answers LOGLEN with a number.
for i in 0 1 2 3; do
	for _ in $(seq 100); do
		if [[ "$("$tmp/kvctl" -nodes "127.0.0.1:1732$i" loglen)" =~ ^[0-9]+$ ]]; then
			continue 2
		fi
		sleep 0.1
	done
	fail "kvnode $i never answered on 127.0.0.1:1732$i"
done

# expect <want> <kvctl args...>: kvctl's output must equal want.
expect() {
	local want=$1 got
	shift
	got=$(timeout 60 "$tmp/kvctl" -nodes "$clients" "$@" 2>&1) || fail "kvctl $*: exit $? ($got)"
	[[ "$got" == "$want" ]] || fail "kvctl $*: got '$got', want '$want'"
}

expect "OK 2 keys" mset a 1 b 2
expect 1 get a
expect OK del a
expect NOTFOUND get a
stats=$(timeout 60 "$tmp/kvctl" -nodes "$clients" stats) || fail "kvctl stats: exit $?"
grep -q '^g0\.smr\.commits=' <<<"$stats" || fail "kvctl stats has no g0.smr.commits= line"
echo "smoke: ok"
