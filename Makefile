# Convenience targets for the tsync repository.

GO ?= go

.PHONY: all build test bench bench-smoke microbench vet lint lint-test lint-json lint-fix-check race cover-check faults passes fingerprint replay serve figures clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# tsyncvet: the stock vet passes plus the repo's nine clock-correctness
# and concurrency analyzers (wallclock, floateq, tsmutate, locked,
# maporder, seedsrc, ctxflow, poolcheck, errform) — see README "Static
# analysis" and internal/lint
lint:
	$(GO) run ./cmd/tsyncvet ./...

# the analyzers' own unit tests (fixture packages under internal/lint)
lint-test:
	$(GO) test ./internal/lint/...

# machine-readable sweep: one JSON object per diagnostic on stdout
lint-json:
	$(GO) run ./cmd/tsyncvet -json ./...

# guard against stale suppressions: every tsync:* directive must carry a
# justification ("—" separator) so a bare marker cannot silence a finding
# without saying why
lint-fix-check:
	@bad=$$(grep -rn '//tsync:[a-z]' --include='*.go' internal cmd bench_test.go 2>/dev/null \
		| grep -v '^internal/lint/' \
		| grep -v '—'); \
	if [ -n "$$bad" ]; then \
		echo "unjustified tsync:* directives (add '— why' to each):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-fix-check: all suppression directives carry justifications"

test:
	$(GO) test ./...

# dynamic complement of the locked analyzer: replay the goroutine
# fan-outs (internal/clc, internal/des) under the race detector
race:
	$(GO) test -race ./...

# coverage ratchet: every internal package must stay at or above the
# percentage recorded in COVERAGE_FLOORS.txt; refresh the floors after
# improving tests with `go run ./cmd/coverfloor -write`
cover-check:
	$(GO) run ./cmd/coverfloor

# the parallel-runner and streaming evaluation: FIG7/FIG8/§V drivers at
# workers=1 vs workers=4 with bit-identical-result verification, plus the
# streaming pipeline cases — streaming-vs-in-memory checksum equality,
# the 1M-event bounded-memory assertion, the batched-vs-legacy (batch=1)
# checksum comparison with allocs/event, the stream-fingerprint overhead
# case (observer checksum + >=90% of baseline throughput), the
# stream-faults salvage case (recovery ratio + cross-worker determinism),
# the replay-1m case (seeded RepCl interleavings must reproduce the
# canonical replay checksum bit for bit), the merge-tree scale cases
# — stream-10k (10,000 ranks under a per-rank heap budget, census equal
# to the flat merge's) and stream-1b (a billion events in window-bounded
# memory) — and the tsyncd-1m service case (concurrent loopback sessions
# against a resident tsyncd, each bit-identical to stream-1m, with
# sessions/sec and p99 latency) (see cmd/bench)
bench:
	$(GO) run ./cmd/bench -workers 4 -o BENCH_PR10.json

# CI-sized bench: 1 rep, tiny workloads, 2 workers — still checks that
# parallel checksums match serial, that the streaming pipeline reproduces
# the in-memory checksums (batched and batch=1 legacy configurations),
# that its peak heap stays window-bounded, that the fingerprint stage is
# a pure observer within its (relaxed) throughput floor, and that the
# stream-faults salvage case recovers >=99% deterministically, plus the
# smoke-scaled merge-tree cases (10k ranks, 1M events) under the same
# budgets; then one iteration of the hot-path microbenchmarks — including
# the adversarial merge-tree interleavings — so their harness code cannot
# rot
bench-smoke:
	$(GO) run ./cmd/bench -smoke -workers 2 -o BENCH_PR10.json
	$(GO) test -run XXX -bench 'BenchmarkStreamPipeline|BenchmarkMergeTree|BenchmarkEventCodec|BenchmarkMapTimeMonotone' -benchtime=1x .

# the fault-tolerance suite on its own: resync framing, salvage,
# cancellation, and fault-injection tests under the race detector
faults:
	$(GO) test -race -run 'Salvage|Cancel|Resync|Corrupt|Frame' ./internal/trace/ ./internal/stream/
	$(GO) test -race ./internal/faultinject/ ./internal/fingerprint/

# the one-walk contract on its own: the pass-count pins (input bytes
# read = 3 x trace for a CLC job, spill bytes read = written), the
# settle-time census against the walk it replaced and against the
# in-memory pipeline on the paper's case, and two tsyncd sessions
# sharing one SpillFS, all under the race detector
passes:
	$(GO) test -race -run 'TestInputPasses|TestLedger|TestDifferentialPipeline|TestWindowPolicyError' ./internal/stream/
	$(GO) test -race -run TestSharedSpillFS ./internal/tsyncd/

# the replay-clock suite on its own: RepCl unit/codec/fuzz-seed tests,
# the replay engine's property/adversarial/fault-matrix tests, and the
# streaming-vs-in-memory stamping differential, all under the race
# detector
replay:
	$(GO) test -race ./internal/replay/
	$(GO) test -race -run 'RepCl|Replay' ./internal/lclock/ ./internal/stream/

# the trace-sync service suite on its own: the tsyncd protocol, quota,
# admission, drain, and fault-matrix tests plus the client backoff and
# exit-code contracts, all under the race detector
serve:
	$(GO) test -race ./internal/tsyncd/ ./internal/backoff/ ./internal/exitcode/ ./internal/faultinject/

# the drift-fingerprint suite on its own: the seeded classification
# matrix (kind × magnitude × position), the auto-knot correction tests,
# and the stream-side determinism/observer differential tests
fingerprint:
	$(GO) test -race ./internal/fingerprint/
	$(GO) test -race -run 'Fingerprint|LossPct' ./internal/stream/

# the full evaluation: one go-test benchmark per table and figure of the
# paper
microbench:
	$(GO) test -bench=. -benchmem ./...

# human-readable regenerations of every paper artifact
figures:
	$(GO) run ./cmd/latencies
	$(GO) run ./cmd/clockstudy -fig 4a
	$(GO) run ./cmd/clockstudy -fig 4b
	$(GO) run ./cmd/clockstudy -fig 4c
	$(GO) run ./cmd/clockstudy -fig 5a
	$(GO) run ./cmd/clockstudy -fig 5b
	$(GO) run ./cmd/clockstudy -fig 5c
	$(GO) run ./cmd/clockstudy -fig 6
	$(GO) run ./cmd/appviolations -compare -waitstates
	$(GO) run ./cmd/ompstudy -timeline

clean:
	rm -f trace.etr trace.etr.offsets.json test_output.txt bench_output.txt BENCH_SMOKE.json cpu.pprof mem.pprof
