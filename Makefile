# Local targets mirroring .github/workflows/ci.yml, so `make ci` reproduces
# exactly what the gate runs.

GO ?= go

.PHONY: build test race bench bench-smoke bench-harness bench-json bench-tcp bench-auth bench-disk bench-wire bench-shard bench-obs bench-gossip bench-read fmt fmt-check vet ci

# Iteration budget for bench-json; CI uses the fast single pass.
BENCHTIME ?= 1x

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark run (slow); CI runs the 1-iteration smoke via bench-smoke.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Pipeline benchmark artifacts: BENCH_pipeline.txt is the raw
# benchstat-compatible output, BENCH_pipeline.json the parsed summary.
# Redirect instead of piping through tee so a failing benchmark fails the
# target (no pipefail in POSIX make shells).
bench-json:
	$(GO) test -bench=SMRPipelined -benchtime=$(BENCHTIME) -run='^$$' . > BENCH_pipeline.txt
	cat BENCH_pipeline.txt
	$(GO) run ./cmd/benchjson < BENCH_pipeline.txt > BENCH_pipeline.json

# TCP-level throughput benchmark (real loopback kvnode clusters, pipeline
# depth swept) with snapshot-size metrics; same artifact pipeline as
# bench-json.
KVLOAD_DEPTHS ?= 1,2,4,8
KVLOAD_CMDS ?= 128

bench-tcp:
	$(GO) run ./cmd/kvload -depths $(KVLOAD_DEPTHS) -cmds $(KVLOAD_CMDS) > BENCH_tcp.txt
	cat BENCH_tcp.txt
	$(GO) run ./cmd/benchjson < BENCH_tcp.txt > BENCH_tcp.json

# Authenticated-command benchmark artifact: signed vs legacy command path at
# batch=64, W=4 (BENCH_auth.{txt,json}); CI uploads both. BENCHTIME should
# be a multiple pass (e.g. 20x) for stable cmds/sec numbers.
AUTH_BENCHTIME ?= 100x

bench-auth:
	$(GO) test -bench=SMRAuthenticated -benchtime=$(AUTH_BENCHTIME) -run='^$$' . > BENCH_auth.txt
	cat BENCH_auth.txt
	$(GO) run ./cmd/benchjson < BENCH_auth.txt > BENCH_auth.json

# Durable-storage benchmark artifact: the disk WAL across the fsync
# on/off × batch 1/64 matrix, plus incremental (delta) vs full checkpoint
# encoding on the 10k-key / 1% mutation workload (snap-bytes is the
# per-interval encode+transfer cost each mode pays). Both runs append into
# one BENCH_disk.txt so benchjson emits a single artifact.
DISK_BENCHTIME ?= 100x

bench-disk:
	$(GO) test -bench=DiskWAL -benchtime=$(DISK_BENCHTIME) -run='^$$' ./internal/storage > BENCH_disk.txt
	$(GO) test -bench=IncrementalSnapshot -benchtime=20x -run='^$$' ./internal/snapshot >> BENCH_disk.txt
	cat BENCH_disk.txt
	$(GO) run ./cmd/benchjson < BENCH_disk.txt > BENCH_disk.json

# Zero-copy wire-path benchmark artifact: kvload sweeps real loopback
# clusters plain and over the authenticated session transport (best of
# WIRE_REPS runs per depth, damping single-core scheduler noise), with pprof
# profiles of the plain sweep as CI artifacts. benchgate enforces the
# throughput floor — WIRE_FLOOR is 5x the pre-zero-copy W=4 baseline of
# 3233.2 cmds/sec — at both depths, which also guards the old W=8 regression
# (6295.2 cmds/sec) without gating on the noise-prone W=4 vs W=8 ordering.
WIRE_DEPTHS ?= 4,8
WIRE_CMDS ?= 512
WIRE_REPS ?= 3
WIRE_FLOOR ?= 16166

bench-wire:
	$(GO) run ./cmd/kvload -depths $(WIRE_DEPTHS) -cmds $(WIRE_CMDS) -reps $(WIRE_REPS) \
		-cpuprofile BENCH_wire_cpu.pprof -memprofile BENCH_wire_mem.pprof > BENCH_wire.txt
	$(GO) run ./cmd/kvload -session -depths $(WIRE_DEPTHS) -cmds $(WIRE_CMDS) -reps $(WIRE_REPS) >> BENCH_wire.txt
	cat BENCH_wire.txt
	$(GO) run ./cmd/benchjson < BENCH_wire.txt > BENCH_wire.json
	$(GO) run ./cmd/benchgate -input BENCH_wire.json \
		'BenchmarkTCPKVLoad/W=4:cmds/sec:$(WIRE_FLOOR)' \
		'BenchmarkTCPKVLoad/W=8:cmds/sec:$(WIRE_FLOOR)'

# Sharded-SMR benchmark artifact: kvload sweeps shard counts S ∈ {1,2,4}
# on one class-3 n=6, b=1, f=1 replica set (2048 cmds spread by key,
# batch 64, per-group pipeline depth 2, best of SHARD_REPS) and emits the
# derived S=max/S=1 scaling ratio. benchgate enforces two floors: S=1 must
# clear the BENCH_wire throughput floor (the group-identity refactor is
# not allowed to cost the unsharded path anything), and scale-x must clear
# SHARD_SCALE. Near-linear scaling needs a core per group — on a
# single-core host all S groups timeshare one CPU, so the gate there only
# asserts sharding is not a tax (>= 0.95x); with 4+ cores it asserts the
# near-linear target (>= 3x).
SHARD_COUNTS ?= 1,2,4
SHARD_CMDS ?= 2048
SHARD_BATCH ?= 64
SHARD_DEPTH ?= 2
SHARD_REPS ?= 3
SHARD_FLOOR ?= 16166
SHARD_SCALE ?= $(shell [ "$$(nproc)" -ge 4 ] && echo 3.0 || echo 0.95)
# With 4+ cores, pin the whole sweep to a fixed CPU set (cores 0..nproc-1)
# so every consensus group timeshares the same stable processors and the
# scale-x quotient measures parallelism, not scheduler migration. On
# smaller hosts (or without taskset) the prefix is empty and the sweep runs
# unpinned exactly as before.
SHARD_PIN ?= $(shell if [ "$$(nproc)" -ge 4 ] && command -v taskset >/dev/null 2>&1; then echo taskset -c 0-$$(($$(nproc) - 1)); fi)

bench-shard:
	$(SHARD_PIN) $(GO) run ./cmd/kvload -shards $(SHARD_COUNTS) -n 6 -b 1 -f 1 \
		-cmds $(SHARD_CMDS) -batch $(SHARD_BATCH) -depths $(SHARD_DEPTH) \
		-reps $(SHARD_REPS) > BENCH_shard.txt
	cat BENCH_shard.txt
	$(GO) run ./cmd/benchjson < BENCH_shard.txt > BENCH_shard.json
	$(GO) run ./cmd/benchgate -input BENCH_shard.json \
		'BenchmarkTCPKVLoadShard/S=1:cmds/sec:$(SHARD_FLOOR)' \
		'BenchmarkTCPKVLoadShardScaling/S=4v1:scale-x:$(SHARD_SCALE)'

# Digest-voting benchmark artifact: kvload sweeps cluster sizes twice —
# full-value voting (mode=mesh) and digest voting over the content-addressed
# payload plane (mode=digest) — at batch=64, both runs appended into one
# BENCH_gossip.txt. benchgate enforces the two acceptance ratios at N=6:
# digest-mode throughput within GOSSIP_PARITY of mesh (decoupling value
# spread from agreement must not cost commits), and mesh vote-bytes/inst at
# least GOSSIP_SHRINK times digest's (the voting plane actually shrank).
GOSSIP_NS ?= 6,10
GOSSIP_CMDS ?= 256
GOSSIP_BATCH ?= 64
GOSSIP_DEPTH ?= 4
GOSSIP_REPS ?= 3
GOSSIP_PARITY ?= 0.95
GOSSIP_SHRINK ?= 5.0

bench-gossip:
	$(GO) run ./cmd/kvload -ns $(GOSSIP_NS) -cmds $(GOSSIP_CMDS) \
		-batch $(GOSSIP_BATCH) -depths $(GOSSIP_DEPTH) -reps $(GOSSIP_REPS) > BENCH_gossip.txt
	$(GO) run ./cmd/kvload -digest -ns $(GOSSIP_NS) -cmds $(GOSSIP_CMDS) \
		-batch $(GOSSIP_BATCH) -depths $(GOSSIP_DEPTH) -reps $(GOSSIP_REPS) >> BENCH_gossip.txt
	cat BENCH_gossip.txt
	$(GO) run ./cmd/benchjson < BENCH_gossip.txt > BENCH_gossip.json
	$(GO) run ./cmd/benchgate -input BENCH_gossip.json \
		-ratio 'BenchmarkTCPKVLoadGossip/mode=digest/N=6:BenchmarkTCPKVLoadGossip/mode=mesh/N=6:cmds/sec:$(GOSSIP_PARITY)' \
		-ratio 'BenchmarkTCPKVLoadGossip/mode=mesh/N=6:BenchmarkTCPKVLoadGossip/mode=digest/N=6:vote-bytes/inst:$(GOSSIP_SHRINK)'

# Read-plane benchmark artifact: kvload mixed read/write sweeps at
# READ_RATIOS read percentages on one n=4 cluster (batch 64, depth 4, best
# of READ_REPS). R=0 is the write-only floor at the same cluster shape;
# reads ride the read-index local path (READ verb — no consensus instance),
# so benchgate -ratio enforces the acceptance bound: R=99 mixed throughput
# at least READ_SCALE times the write-only floor.
READ_RATIOS ?= 0,50,90,99
READ_CMDS ?= 2000
READ_BATCH ?= 64
READ_DEPTH ?= 4
READ_REPS ?= 3
READ_SCALE ?= 3.0

bench-read:
	$(GO) run ./cmd/kvload -read-ratios $(READ_RATIOS) -n 4 -cmds $(READ_CMDS) \
		-batch $(READ_BATCH) -depths $(READ_DEPTH) -reps $(READ_REPS) > BENCH_read.txt
	cat BENCH_read.txt
	$(GO) run ./cmd/benchjson < BENCH_read.txt > BENCH_read.json
	$(GO) run ./cmd/benchgate -input BENCH_read.json \
		-ratio 'BenchmarkTCPKVLoadMixed/R=99:BenchmarkTCPKVLoadMixed/R=0:cmds/sec:$(READ_SCALE)'

# Observability-overhead benchmark artifact: the identical pipelined SMR
# load with the metrics registry on and off (wall-clock cmds/sec). benchgate
# -ratio enforces the acceptance bound: metrics-on throughput within
# OBS_OVERHEAD of metrics-off (0.97 = at most 3% overhead). OBS_BENCHTIME
# should be a time budget, not 1x, so the quotient is signal, not noise.
OBS_BENCHTIME ?= 2s
OBS_OVERHEAD ?= 0.97

bench-obs:
	$(GO) test -bench=SMRObs -benchtime=$(OBS_BENCHTIME) -run='^$$' . > BENCH_obs.txt
	cat BENCH_obs.txt
	$(GO) run ./cmd/benchjson < BENCH_obs.txt > BENCH_obs.json
	$(GO) run ./cmd/benchgate -input BENCH_obs.json \
		-ratio 'BenchmarkSMRObs/metrics=on:BenchmarkSMRObs/metrics=off:cmds/sec:$(OBS_OVERHEAD)'

fmt:
	gofmt -w .

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repo benchmark (BENCHMARK.json) is its own module under bench/,
# compiled against genconsensus/internal/...: `./...` from the root never
# builds it, so an internal API change that breaks it must fail here.
bench-harness:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

ci: build vet fmt-check race bench-smoke bench-harness
