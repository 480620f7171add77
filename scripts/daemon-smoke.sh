#!/usr/bin/env bash
# entkd end-to-end smoke test (also run by CI):
#
#   1. build entkd and entk-run
#   2. start entkd on a temp unix socket
#   3. submit the shipped example application over the socket, three times
#      to the same daemon: the second and third run start on a daemon that
#      has already let go of a finished run's manager and lease
#   4. wait for each run to reach DONE
#   5. SIGTERM the daemon and assert a clean shutdown with zero leaked leases
#
# Exits nonzero on any failed step. Runs in a few seconds: the example app
# is ~780 virtual seconds and the daemon runs at 1ms per virtual second.
set -euo pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
SOCK="$TMP/entkd.sock"
LOG="$TMP/entkd.log"
cleanup() {
    [ -n "${DPID:-}" ] && kill "$DPID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "== building"
go build -o "$TMP/entkd" ./cmd/entkd
go build -o "$TMP/entk-run" ./cmd/entk-run

echo "== starting entkd on $SOCK"
"$TMP/entkd" -socket "$SOCK" -resource titan -cores 64 -walltime 2h -scale 1ms >"$LOG" 2>&1 &
DPID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$DPID" 2>/dev/null || { echo "entkd died during startup:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "entkd never bound $SOCK:"; cat "$LOG"; exit 1; }

for n in 1 2 3; do
    echo "== submitting example app ($n of 3)"
    OUT=$("$TMP/entk-run" -app cmd/entk-run/example-app.json -daemon "$SOCK" -tenant smoke)
    echo "$OUT"
    echo "$OUT" | grep -q "finished: DONE" || { echo "run $n did not finish DONE"; exit 1; }
done

echo "== shutting down"
kill -TERM "$DPID"
wait "$DPID" || { echo "entkd exited nonzero:"; cat "$LOG"; exit 1; }
DPID=""
cat "$LOG"
grep -q "^leaked leases: 0$" "$LOG" || { echo "daemon leaked leases (or never reported)"; exit 1; }

echo "== daemon smoke OK"
