# Convenience targets for the tsync repository.

GO ?= go

.PHONY: all build test microbench vet lint lint-test lint-json lint-fix-check race cover-check faults passes fingerprint replay serve figures clean

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

# the fault-tolerance suite on its own: resync framing, salvage,
# cancellation, and fault-injection tests under the race detector
faults:
	$(GO) test -race -run 'Salvage|Cancel|Resync|Corrupt|Frame' ./internal/trace/ ./internal/stream/
	$(GO) test -race ./internal/faultinject/ ./internal/fingerprint/

# the one-walk contract on its own: the pass-count pins (input bytes
# read for a CLC job = 2 x trace plus one small read per block for a v2
# file, whose index hops block heads, 3 x trace for a v1 file, whose
# index decodes it; spill bytes read = written), the settle-time census
# against the walk it replaced and against the in-memory pipeline on the
# paper's case, and two tsyncd sessions sharing one SpillFS, all under
# the race detector; then, without it (the race build inflates allocation
# counts), the serial thread's allocation rate per event, the ring it
# queues on and the resumed ramp-readiness scan
passes:
	$(GO) test -race -run 'TestInputPasses|TestLedger|TestDifferentialPipeline|TestWindowPolicyError' ./internal/stream/
	$(GO) test -race -run TestSharedSpillFS ./internal/tsyncd/
	$(GO) test -run 'TestWalkAllocsPerEvent|TestPumpScanSteps|TestRing' ./internal/stream/

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
	rm -f trace.etr trace.etr.offsets.json test_output.txt bench_output.txt cpu.pprof mem.pprof
