#!/bin/sh
# obs-smoke.sh — observability HTTP surface smoke test (wired into CI
# and `make obs-smoke`; see docs/OBSERVABILITY.md).
#
# It boots `engined -listen` on a random port, waits for the serving
# marker (printed once the demo fleet is applied), and asserts the three
# contracts of the /metrics surface:
#   1. the required series exist — the paper-facing load gauges
#      (max_load, lstar), the engine health gauges (queue depth,
#      breaker state), the apply-latency histogram, and the WAL fsync
#      counter (pre-registered at wal.Open, so it exists even before
#      the first fsync);
#   2. the exposition parses: every non-comment line is
#      `name{labels} value` with a numeric value;
#   3. /debug/flightrec serves JSONL whose first line is a structured
#      event (has a "kind" field).
set -eu

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

echo "obs-smoke: 1/4 boot engined -listen on a random port"
go build -o "$workdir/engined" ./cmd/engined
"$workdir/engined" -listen 127.0.0.1:0 2> "$workdir/stderr.log" &
pid=$!

addr=""
for _ in $(seq 1 120); do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "obs-smoke: engined exited early" >&2
        cat "$workdir/stderr.log" >&2
        exit 1
    fi
    addr=$(sed -n 's#^engined: serving observability endpoints on http://\([^ ]*\).*#\1#p' "$workdir/stderr.log")
    [ -n "$addr" ] && break
    sleep 1
done
if [ -z "$addr" ]; then
    echo "obs-smoke: timed out waiting for the serving marker" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi

echo "obs-smoke: 2/4 scrape /metrics from $addr and check required series"
curl -sf "http://$addr/metrics" > "$workdir/metrics.txt"
for series in \
    partalloc_tenant_max_load \
    partalloc_tenant_lstar \
    partalloc_tenant_peak_load \
    partalloc_tenant_queue_depth \
    partalloc_tenant_breaker_state \
    partalloc_tenant_apply_latency_seconds_bucket \
    partalloc_wal_fsyncs_total \
    partalloc_wal_fsync_latency_seconds_bucket
do
    if ! grep -q "^$series" "$workdir/metrics.txt"; then
        echo "obs-smoke: required series $series missing from /metrics" >&2
        exit 1
    fi
done

echo "obs-smoke: 3/4 check the exposition parses"
# Every non-comment, non-blank line must be `name{labels} value` (or
# `name value`) with a single numeric value, incl. +Inf.
if awk '
    /^#/ || /^$/ { next }
    {
        if (NF != 2) { print "bad field count: " $0; exit 1 }
        if ($1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?$/) { print "bad series: " $0; exit 1 }
        if ($2 !~ /^([+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$/) { print "bad value: " $0; exit 1 }
    }
' "$workdir/metrics.txt" | grep .; then
    echo "obs-smoke: /metrics failed to parse" >&2
    exit 1
fi

echo "obs-smoke: 4/4 check /debug/flightrec serves structured JSONL"
curl -sf "http://$addr/debug/flightrec" | head -1 > "$workdir/flight.first"
if ! grep -q '"kind"' "$workdir/flight.first"; then
    echo "obs-smoke: flight-recorder dump has no structured first event:" >&2
    cat "$workdir/flight.first" >&2
    exit 1
fi

kill -INT "$pid"
wait "$pid" 2>/dev/null || true

echo "obs-smoke: OK"
