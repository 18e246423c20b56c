#!/bin/sh
# harvest-smoke: harvested-energy environments end to end.
#
# Places crc with Ratchet (failure-tolerant anywhere, so harvested
# refusals are routine), runs it under three environments whose outages
# are real refusal decisions that land in the recorded NDJSON trace — a
# short-period solar profile whose nights outlast the capacitor, an
# undersized RF capacitor that reboots at 80%, and the duty-cycled
# regulator — then replays each trace and requires the bare run, the
# recorded run and the replay to agree exactly: same program output,
# same verdict, same energy ledger (recording only observes). The
# recorder reads per-instruction events, so the recorded run steps
# while the bare run batches: these comparisons are the CLI's
# batched-versus-stepped check, outage recharges included. It checks
# three usage errors (exit 2): a -power naming two
# power sources, recording a harvested run of a MEMENTOS placement,
# whose trigger checkpoints measure a level no trace carries, and an
# -inject at a charge point, which only the capacitor (or a replay of a
# recorded trace) may fail. Then
# sweeps the quick benchmarks
# across three harvested environments against their continuous-power
# oracles with zero tolerated violations. Finally sweeps a sabotaged
# placement and requires the violation (exit 1): the power sweep shares
# the hunt's and the model checker's exhaustion-baseline gate, and this
# keeps the three modes from drifting apart. Wired into `make ci`.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp" ./cmd/schematicc ./cmd/iemu ./cmd/crashhunt

"$tmp/schematicc" -technique ratchet -budget 3000 \
    -o "$tmp/crc.ir" internal/bench/programs/crc.mc 2>/dev/null
"$tmp/schematicc" -technique mementos -budget 3000 \
    -o "$tmp/crc-mementos.ir" internal/bench/programs/crc.mc 2>/dev/null

# usage_error CMD...: the command must exit 2.
usage_error() {
    status=0
    "$@" >/dev/null 2>"$tmp/usage.err" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "harvest-smoke: $*: want exit 2, got $status" >&2
        cat "$tmp/usage.err" >&2
        exit 1
    fi
}

# same POWER WHAT A B: files A and B must be identical.
same() {
    if ! cmp -s "$3" "$4"; then
        echo "harvest-smoke: -power $1: $2 differ" >&2
        diff "$3" "$4" >&2 || true
        exit 1
    fi
}

# Record, run bare, replay. period=20000,day=0.3 gives 14000-cycle
# nights against a 3000 nJ capacitor (~7500 cycles of charge), and the
# RF and duty-cycled supplies leave gaps of their own: every environment
# fails at least once.
for power in solar:period=20000,day=0.3,window=2000 rf:cap=2700,restart=0.8 duty; do
    "$tmp/iemu" -eb 3000 -power "$power" -record "$tmp/run.ndjson" "$tmp/crc.ir" \
        >"$tmp/rec.out" 2>"$tmp/rec.stats"
    grep -q '"kind":"harvest-trace"' "$tmp/run.ndjson"
    grep -q '"k":"fail"' "$tmp/run.ndjson"
    grep -q '^verdict: *completed$' "$tmp/rec.stats"

    # Recording only observes: the bare run prints the same stats block.
    "$tmp/iemu" -eb 3000 -power "$power" "$tmp/crc.ir" \
        >"$tmp/bare.out" 2>"$tmp/bare.stats"
    same "$power" "bare and recorded outputs" "$tmp/bare.out" "$tmp/rec.out"
    same "$power" "bare and recorded stats" "$tmp/bare.stats" "$tmp/rec.stats"

    # Replay must reproduce the run byte for byte: the program output and
    # the full stats block (verdict, cycles, ledger, failure counts).
    "$tmp/iemu" -eb 3000 -power "trace:$tmp/run.ndjson" "$tmp/crc.ir" \
        >"$tmp/rep.out" 2>"$tmp/rep.stats"
    same "$power" "recorded and replayed outputs" "$tmp/rec.out" "$tmp/rep.out"
    same "$power" "recorded and replayed stats" "$tmp/rec.stats" "$tmp/rep.stats"
done

# One capacitor per run: two power sources are a usage error, and so
# is recording a harvested MEMENTOS run. Refused draws are physics:
# a trace replays them, but charge is no injection point.
usage_error "$tmp/iemu" -eb 3000 -power solar+rf "$tmp/crc.ir"
usage_error "$tmp/iemu" -eb 3000 -power solar -record "$tmp/m.ndjson" "$tmp/crc-mementos.ir"
usage_error "$tmp/iemu" -eb 3000 -inject charge@5 "$tmp/crc.ir"

# Harvested sweep: quick benchmarks x every technique under three
# environments, classified against the continuous-power oracle.
"$tmp/crashhunt" -benches crc,randmath -power solar -power rf -power duty -timeout 60s

# A sabotaged placement must be reported (exit 1, not an infrastructure
# error): its exhaustion baseline already diverges from the oracle.
status=0
"$tmp/crashhunt" -benches crc -techs Ratchet -sabotage 2 -power solar -timeout 60s || status=$?
if [ "$status" -ne 1 ]; then
    echo "harvest-smoke: sabotaged placement: want exit 1, got $status" >&2
    exit 1
fi

echo "harvest-smoke: ok"
