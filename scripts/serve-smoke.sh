#!/bin/sh
# serve-smoke: end-to-end exercise of the schematicd daemon.
#
# Builds schematicd + schemactl, starts the daemon on an ephemeral port,
# round-trips a compile and an emulate through schemactl, proves the
# content-addressed cache dedups a repeat, scrapes /metrics, exercises
# the live console (dashboard page, observed emulation, run registry,
# SSE stream followed to its terminal result), round-trips an exhaustive
# verification through POST /v1/verify (cached on resubmission), tails a
# grid and a failed emulation to their terminal records, checks which
# of them shared the compile and profile stages, and checks the daemon
# drains cleanly on SIGTERM (exit 0). Wired into `make ci`.
set -eu

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/schematicd ./cmd/schemactl

"$tmp/schematicd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -q 2>"$tmp/daemon.log" &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon never published its address" >&2
        cat "$tmp/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/addr")

ctl() { "$tmp/schemactl" -addr "$addr" "$@"; }

ctl health | grep -q '"status":"ok"'

ctl compile -bench crc -tech schematic -tbpf 2000 -profile-runs 2 -o "$tmp/compile.json"
grep -q '"checkpoints"' "$tmp/compile.json"

ctl emulate -bench crc -tech schematic -tbpf 2000 -profile-runs 2 -o "$tmp/emulate.json"
grep -q '"verdict": "completed"' "$tmp/emulate.json"

# The identical request again: must be answered from the result cache.
ctl emulate -bench crc -tech schematic -tbpf 2000 -profile-runs 2 >/dev/null

ctl metrics >"$tmp/metrics.txt"
grep -q 'schematicd_requests_total{endpoint="compile",code="200"} 1' "$tmp/metrics.txt"
grep -q 'schematicd_requests_total{endpoint="emulate",code="200"} 2' "$tmp/metrics.txt"
grep -q 'schematicd_cache_hits_total 1' "$tmp/metrics.txt"
grep -q 'schematicd_cache_misses_total 2' "$tmp/metrics.txt"

# --- live console ---

# The embedded dashboard serves at /.
curl -fsS "http://$addr/" >"$tmp/dash.html"
grep -qi 'schematic' "$tmp/dash.html"

# An observed emulation lands in the run registry...
ctl emulate -bench crc -tech schematic -tbpf 2000 -profile-runs 2 -observe -o "$tmp/observe.json"
grep -q '"verdict": "completed"' "$tmp/observe.json"
digest=$(ctl runs | grep -o '"digest":"[0-9a-f]*"' | head -1 | cut -d'"' -f4)
if [ -z "$digest" ]; then
    echo "serve-smoke: observed run missing from /v1/runs" >&2
    exit 1
fi
ctl runs | grep -q "\"digest\":\"$digest\",\"name\":\"crc\""
# Its detail carries the Collector's per-site table: the observed run
# attributes its energy to crc's checkpoint sites.
curl -fsS "http://$addr/v1/runs/$digest" >"$tmp/run.json"
if ! grep -q '"sites":\[{' "$tmp/run.json"; then
    echo "serve-smoke: observed run's detail has no sites table" >&2
    exit 1
fi

# ...and its SSE stream replays to a terminal result record.
ctl tail "$digest" >"$tmp/events.ndjson"
[ "$(wc -l <"$tmp/events.ndjson")" -gt 1 ]
tail -1 "$tmp/events.ndjson" | grep -q '"k":"result"'

# The stream shows up in the metrics page, now histogram-shaped.
ctl metrics >"$tmp/metrics2.txt"
grep -q 'schematicd_requests_total{endpoint="events",code="200"} 1' "$tmp/metrics2.txt"
grep -q 'schematicd_request_duration_seconds_bucket{endpoint="events",le="+Inf"} 1' "$tmp/metrics2.txt"
grep -q 'schematicd_sse_subscribers 0' "$tmp/metrics2.txt"
# Two registered runs: the unobserved emulate and the observed one (the
# cache-served repeat never reaches the registry).
grep -q 'schematicd_runs_retained 2' "$tmp/metrics2.txt"

# --- exhaustive verification ---

# POST /v1/verify model-checks a placement to a verdict...
verify_req='{"bench":"randmath","options":{"technique":"ratchet"}}'
curl -fsS -D "$tmp/verify.hdr" -d "$verify_req" "http://$addr/v1/verify" >"$tmp/verify.json"
grep -q '"verdict":"verified"' "$tmp/verify.json"
grep -q '"ok":true' "$tmp/verify.json"

# ...and the identical request is answered from the result cache: same
# digest, byte-identical body, one more cache hit and no new miss.
curl -fsS -D "$tmp/verify2.hdr" -d "$verify_req" "http://$addr/v1/verify" >"$tmp/verify2.json"
cmp -s "$tmp/verify.json" "$tmp/verify2.json"
d1=$(grep -i '^x-schematic-digest:' "$tmp/verify.hdr" | tr -d '\r' | cut -d' ' -f2)
d2=$(grep -i '^x-schematic-digest:' "$tmp/verify2.hdr" | tr -d '\r' | cut -d' ' -f2)
[ -n "$d1" ] && [ "$d1" = "$d2" ]

ctl metrics >"$tmp/metrics3.txt"
grep -q 'schematicd_requests_total{endpoint="verify",code="200"} 2' "$tmp/metrics3.txt"
grep -q 'schematicd_cache_hits_total 2' "$tmp/metrics3.txt"
grep -q 'schematicd_cache_misses_total 4' "$tmp/metrics3.txt"
grep 'schematicd_verify_states_total' "$tmp/metrics3.txt" | grep -qv ' 0$'

# --- terminal records of a grid and of a failed run ---

# A 2-cell grid's stream ends with the assembled table.
ctl grid -benches crc -techniques schematic,ratchet -tbpfs 2000 -profile-runs 2 -o "$tmp/grid.json"
grid_digest=$(grep -m1 '"digest"' "$tmp/grid.json" | cut -d'"' -f4)
[ -n "$grid_digest" ]
ctl tail "$grid_digest" >"$tmp/grid.ndjson"
tail -1 "$tmp/grid.ndjson" | grep -q '"k":"result"'
tail -1 "$tmp/grid.ndjson" | grep -q '"cells_total":2'

# The compile, both emulates and the ratchet cell shared one crc front
# end and one crc profile (the schematic cell was a result-cache hit).
ctl metrics >"$tmp/metrics4.txt"
grep -q 'schematicd_stage_cache_total{stage="front",result="miss"} 1' "$tmp/metrics4.txt"
grep -q 'schematicd_stage_cache_total{stage="profile",result="miss"} 1' "$tmp/metrics4.txt"

# MEMENTOS cannot place dijkstra in 2048 bytes of SVM: 422, and the
# run's stream ends with an error record that makes tail exit 1.
st=0
ctl emulate -bench dijkstra -tech mementos -vmsize 2048 -profile-runs 2 >/dev/null 2>"$tmp/failed.err" || st=$?
[ "$st" -eq 1 ]
grep -q '422' "$tmp/failed.err"
failed_digest=$(ctl runs | grep -o '"digest":"[0-9a-f]*","name":"dijkstra"' | head -1 | cut -d'"' -f4)
[ -n "$failed_digest" ]
st=0
ctl tail "$failed_digest" >"$tmp/failed.ndjson" || st=$?
[ "$st" -eq 1 ]
tail -1 "$tmp/failed.ndjson" | grep -q '"k":"error"'

# The rejection compiled dijkstra but never profiled it.
ctl metrics >"$tmp/metrics5.txt"
grep -q 'schematicd_stage_cache_total{stage="front",result="miss"} 2' "$tmp/metrics5.txt"
grep -q 'schematicd_stage_cache_total{stage="profile",result="miss"} 1' "$tmp/metrics5.txt"

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "serve-smoke: daemon exited nonzero after SIGTERM" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi
pid=""
grep -q 'drained, exiting' "$tmp/daemon.log"

echo "serve-smoke: ok"
