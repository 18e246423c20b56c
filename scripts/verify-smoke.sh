#!/bin/sh
# verify-smoke: exhaustive crash-verification gate.
#
# Model-checks the small benchmarks (crc, randmath) under a rollback and
# a checkpoint technique — every reachable persistent state, every
# power-failure injection point — and requires a clean Verified verdict.
# Then deletes a checkpoint from a known-good placement and requires the
# checker to find a shrunk counterexample (exit 1) whose NDJSON repro
# replays deterministically, and that negative bounds, case numbers,
# worker counts, timeouts and budgets are refused as flag mistakes.
# Wired into `make ci`.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/crashhunt" ./cmd/crashhunt

# Correct placements must verify exhaustively: full state counts, no
# bound hit, no counterexample.
"$tmp/crashhunt" -exhaustive -benches crc,randmath -techs Ratchet,Alfred -timeout 60s

# A sabotaged placement must yield a counterexample (exit 1, not an
# infrastructure error) with a serialized repro...
status=0
"$tmp/crashhunt" -exhaustive -benches randmath -techs Alfred -sabotage 1 \
    -o "$tmp/findings.ndjson" -timeout 60s || status=$?
if [ "$status" -ne 1 ]; then
    echo "verify-smoke: sabotaged placement: want exit 1, got $status" >&2
    exit 1
fi
[ -s "$tmp/findings.ndjson" ]

# ...that replays to the recorded violation class.
"$tmp/crashhunt" -replay "$tmp/findings.ndjson"

# A negative bound, case number, worker count, case timeout or budget
# is a flag mistake (exit 2), refused before any emulator run: never a
# BOUNDED verdict, an intact-placement hunt or an unbounded sweep.
for flags in "-exhaustive -max-states -1" "-exhaustive -max-depth -1" \
    "-sabotage -1" "-tbpf -1" "-timeout -1s" "-budget -1s" "-jobs -1"; do
    status=0
    "$tmp/crashhunt" -benches crc -techs Ratchet $flags >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "verify-smoke: crashhunt $flags: want exit 2, got $status" >&2
        exit 1
    fi
done

echo "verify-smoke: ok"
