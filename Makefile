# Local targets mirroring .github/workflows/ci.yml: `make ci` runs the same
# commands the gate runs (`race` is scripts/race-gates.sh: the tests no
# gate names, then each named gate, which ci.yml runs as its own step so a
# failure is attributed; the union is `go test -race ./...`). `test` runs
# without the race detector: the allocation gates skip under it.

GO ?= go

.PHONY: build test race mutants bench bench-smoke bench-harness bench-run bench-ab fuzz-smoke smoke fmt fmt-check vet loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	GO=$(GO) ./scripts/race-gates.sh

# The mutation gate (scripts/mutants.sh): each row plants a known bug in a
# temporary copy of the tree and fails unless its regression test fails.
mutants:
	GO=$(GO) ./scripts/mutants.sh

# Micro-benchmarks: one per paper artifact (root bench_test.go) or per layer
# (internal/*). Whole-system numbers come from bench/ (see bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Every micro-benchmark compiles and runs once.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The repo benchmark (BENCHMARK.json) is its own module under bench/,
# compiled against genconsensus/internal/...: `./...` from the root never
# builds it, so an internal API change that breaks it must fail here.
bench-harness:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# End-to-end gate: a short run of each gated workload. No floors — the run
# exits non-zero on the harness's fatal correctness check (identical
# snapshots, real-time order, no backward read). For numbers, run without
# -seconds and read bench/README.md.
bench-run:
	for w in write-hot write-warm mixed-read90; do \
		$(GO) run -C bench . -workload $$w -seed 1 -seconds 6 || exit 1; \
	done

# Paired A/B of the working tree against PARENT on workload W: PAIRS pairs
# of SECONDS-long runs, alternating order, with each side's median and
# quartiles and the pairs the change won per metric. Not part of ci.
PAIRS ?= 10
SECONDS ?= 30
bench-ab:
	GO=$(GO) ./scripts/bench-ab.sh "$(PARENT)" "$(W)" "$(PAIRS)" "$(SECONDS)"

# The shipped binaries end to end: kvnode and kvctl as built, a four-node
# loopback cluster at default flags, kvctl writes, reads and stats checked.
smoke:
	GO=$(GO) ./scripts/smoke.sh

# Every fuzz target explores for a few seconds (plain `go test` only
# replays the seed corpora). Go fuzzes one target per invocation, so the
# targets are discovered package by package rather than listed by hand.
fuzz-smoke:
	for pkg in $$($(GO) list ./...); do \
		for t in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 5s $$pkg || exit 1; \
		done; \
	done

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

# Non-test Go lines per package directory (root, bench, cmd/*, internal/*)
# and their total: the size figure simplification work is measured by.
# Not part of ci.
loc:
	@for d in . bench $$(ls -d cmd/* internal/*); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

ci: build vet fmt-check bench-harness fuzz-smoke test race mutants smoke bench-smoke bench-run
