# Tier-1 gate: everything a PR must keep green.
.PHONY: ci fmt vet perfbench-vet build test race short cover crashhunt-smoke verify-smoke harvest-smoke fuzz-smoke transval-smoke serve-smoke store-smoke loadtest-smoke bench bench-smoke

ci: fmt vet perfbench-vet build race fuzz-smoke transval-smoke crashhunt-smoke verify-smoke harvest-smoke serve-smoke store-smoke loadtest-smoke bench-smoke

# Fail when any file is not gofmt-clean (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# The benchmark under perfbench/ is its own module and compiles against
# this tree's packages (server.CacheStats, emulator.Config, bench.Harness
# and more); vet it here so a change to one of those shapes fails CI
# instead of the benchmark run. Runs offline.
perfbench-vet:
	cd perfbench && go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Fast local loop: skips the slow full-matrix experiments.
short:
	go test -short ./...

# Per-package statement coverage.
cover:
	go test -cover ./...

# Fast crash-consistency sweep: the quick benchmarks across every
# technique, hard-capped at a minute. Nonzero exit on any violation.
crashhunt-smoke:
	go run ./cmd/crashhunt -benches crc,randmath -budget 60s

# Exhaustive crash verification: model-check the small benchmarks to a
# Verified verdict, then require a sabotaged placement to produce a
# replayable counterexample. See scripts/verify-smoke.sh.
verify-smoke:
	sh scripts/verify-smoke.sh

# Harvested-energy environments end to end: record a solar run into an
# NDJSON trace, replay it byte-identically, then sweep the quick
# benchmarks under three harvested environments against their
# continuous-power oracles. See scripts/harvest-smoke.sh.
harvest-smoke:
	sh scripts/harvest-smoke.sh

# Short native-fuzzing burst over every fuzz target (~10s each): the
# front end, the IR text format, the optimizer, and the placement
# guarantees. Corpora live under each package's testdata/fuzz.
fuzz-smoke:
	go test ./internal/minic -run '^$$' -fuzz '^FuzzMiniCCompile$$' -fuzztime 10s
	go test ./internal/ir -run '^$$' -fuzz '^FuzzIRParseRoundtrip$$' -fuzztime 10s
	go test ./internal/opt -run '^$$' -fuzz '^FuzzOptimizer$$' -fuzztime 10s
	go test ./internal/core -run '^$$' -fuzz '^FuzzSchematicGuarantees$$' -fuzztime 10s

# Quick translation validation: every benchmark plus a small fuzz
# stream through every pipeline stage. Nonzero exit on any mismatch.
transval-smoke:
	go run ./cmd/transval -fuzz 25

# Full performance report: grid throughput (batched vs stepped),
# schematicd emulate latency, grid-service cold/warm/store-warm,
# loadtest mixed workload, crashtest cases/sec, verifier states/sec,
# harvested-schedule overhead. Rewrites the committed BENCH_010.json;
# run on an idle machine.
bench:
	sh scripts/bench.sh

# CI performance gate: a tiny grid, a well-formed report, and no >20%
# compiled-throughput regression against the committed BENCH_010.json.
bench-smoke:
	go run ./cmd/schemabench -smoke -o /tmp/bench-smoke.json -check BENCH_010.json

# Daemon round trip: start schematicd on an ephemeral port, drive a
# compile + emulate through schemactl, check cache dedup on /metrics,
# and verify a clean SIGTERM drain. See scripts/serve-smoke.sh.
serve-smoke:
	sh scripts/serve-smoke.sh

# Disk-store restart survival across real processes: two schematicd
# runs on one -store directory; the second must answer everything —
# including a whole grid — from disk. See scripts/store-smoke.sh.
store-smoke:
	sh scripts/store-smoke.sh

# Load generator against a real daemon: a closed-loop mixed workload
# with zero tolerated failures. See scripts/loadtest.sh.
loadtest-smoke:
	sh scripts/loadtest.sh
