# Tier-1 verification lives in ROADMAP.md; `make ci` is the superset run
# in CI: vet + build + race-enabled tests across every package, then the
# same race run again with the parallel engine forced on.

GO ?= go

# Worker count the race-parallel step forces through EXPRESSO_WORKERS.
# Options.Workers==0 and service EngineWorkers==0 resolve to this, so the
# whole suite — including the service path — exercises the multi-goroutine
# engine under the race detector.
RACE_WORKERS ?= 4

.PHONY: ci vet staticcheck build test race race-parallel race-service trace-overhead bench-memwatermark bench-reorder store-check gate-check trace-check reorder-check alloc-guard

ci: vet staticcheck build race race-parallel store-check gate-check trace-check reorder-check alloc-guard

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The binary is not vendored and CI images may
# not have it; degrade to a note instead of failing the gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

# Tier-1: the fast correctness gate.
test:
	$(GO) test ./...

# Full race-enabled run (slower; the service package must stay race-clean).
# Race runtime is ~10-20x on a single-core box, so the timeout carries
# headroom over the 10m default; the full-network profile test skips
# itself under race (prof_test.go) — it alone would need ~30min.
race:
	$(GO) test -race -timeout 30m ./...

# The packages with parallel hot paths, race-checked with the concurrent
# engine forced on for every verification (not just tests that opt in).
# The root package's own determinism/race tests already pin Workers
# explicitly, so they are covered by the plain `race` run above.
race-parallel:
	EXPRESSO_WORKERS=$(RACE_WORKERS) $(GO) test -race -timeout 30m -count=1 ./internal/bdd/ ./internal/epvp/ ./internal/spf/ ./internal/service/

# Just the verification daemon under the race detector.
race-service:
	$(GO) test -race ./internal/service/...

# Artifact-store gate: the disk-warm determinism matrix (byte-identical
# reports across fixtures, worker counts, and forced reclamation sweeps),
# the shared-directory replica scenario, corruption/version-mismatch
# injection, and the memory-eviction interaction — plus the store and
# codec unit tests (framing, LRU eviction, tmp sweep, the import and
# artifact-decoder fuzz seeds).
store-check:
	$(GO) test . -run 'TestStore' -count=1 -timeout 15m
	$(GO) test -count=1 ./internal/store/ ./internal/bdd/ ./internal/automaton/ ./internal/pipeline/

# Tracing cost on region 1: the tier-2 overhead assertion (traced vs
# untraced verifications, min-of-3 interleaved, < 5%). The test skips
# itself without the env knob because it is timing-sensitive. Layered
# performance numbers come from perfbench (see perfbench/README.md).
trace-overhead:
	EXPRESSO_TRACE_OVERHEAD=1 $(GO) test . -run TestTraceOverhead -count=1 -v -timeout 30m

# CI gate semantics: `expresso gate` exit codes (no change and fixed
# violations pass, new violations fail) plus the baseline/delta
# byte-identity acceptance tests behind them.
gate-check:
	$(GO) test . -run 'TestGate|TestBaseline' -count=1

# Trace-analysis gate: the end-to-end `expresso trace diff` attribution
# golden test (an injected spf slowdown must be flagged, attributed to
# spf, and nothing else may drift), the traced-run structure checks, and
# the traceview unit suite behind the CLI.
trace-check:
	$(GO) test . -run 'TestTraceDiffGolden|TestVerifyTextTrace|TestVerifyTrace' -count=1
	$(GO) test -count=1 ./internal/traceview/

# Dynamic-reordering gate: the forced-sifting determinism matrix (byte-
# identical reports across worker counts, reclamation schedules, and a
# disk-warm restart), concurrent deltas against one baseline under forced
# sifting and sweeping, the static-order testnet assertion, and the
# sifting engine's unit suite (swap canonicity, order-independent
# fingerprints, cross-order serialization).
reorder-check:
	$(GO) test . -run 'TestReorderDeterminismMatrix|TestReorderDiskWarmByteIdentical|TestReorderConcurrentBaselineDeltas' -count=1 -timeout 15m
	$(GO) test ./internal/epvp/ -run 'TestInterleavedOrderShrinksTestnet' -count=1
	$(GO) test -count=1 ./internal/bdd/

# The PR-10 recorded numbers: the region-1 memory watermark under the
# interleaved static order alone and with a forced sifting budget,
# with deltas against the PR-9 blocked-order baseline, into
# BENCH_pr10.json.
bench-reorder:
	EXPRESSO_BENCH_REORDER=1 $(GO) test . -run TestRegion1ReorderBench -count=1 -v -timeout 30m
	@cat BENCH_pr10.json

# Memory watermark on region 1: one traced verification, recording the
# schedule-independent peak live BDD nodes/bytes (sampled at reclaim
# entry, EPVP round barriers, and SPF completion) into BENCH_pr9.json.
bench-memwatermark:
	EXPRESSO_MEM_WATERMARK=1 $(GO) test . -run TestRegion1MemWatermark -count=1 -v -timeout 30m
	@cat BENCH_pr9.json

# Allocation-regression guard: one cold region-1 verification must stay
# under the byte ceiling in alloc_guard_test.go. The test skips itself
# without the env knob, so plain `go test ./...` stays fast.
alloc-guard:
	EXPRESSO_ALLOC_GUARD=1 $(GO) test . -run TestRegion1AllocGuard -count=1 -v -timeout 15m
