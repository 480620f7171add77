#!/usr/bin/env bash
# entkd end-to-end smoke test (also run by CI):
#
#   1. build entkd, entk-run and entk-dump
#   2. start entkd on a temp unix socket, with a journal root
#   3. submit the shipped example application over the socket, three times
#      to the same daemon: the second and third run start on a daemon that
#      has already let go of a finished run's manager and lease
#   4. wait for each run to reach DONE; the first one is journaled (-journal),
#      and entk-dump must read its directory with no violation and every
#      task DONE; the last one streams the daemon's event feed (-progress),
#      which must end with the daemon's end frame and nothing dropped
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
go build -o "$TMP/entk-dump" ./cmd/entk-dump

echo "== starting entkd on $SOCK"
"$TMP/entkd" -socket "$SOCK" -journal-root "$TMP/journals" -resource titan -cores 64 -walltime 2h -scale 1ms >"$LOG" 2>&1 &
DPID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$DPID" 2>/dev/null || { echo "entkd died during startup:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "entkd never bound $SOCK:"; cat "$LOG"; exit 1; }

for n in 1 2 3; do
    echo "== submitting example app ($n of 3)"
    EXTRA=()
    [ "$n" = 1 ] && EXTRA=(-journal yes)
    [ "$n" = 3 ] && EXTRA=(-progress)
    OUT=$("$TMP/entk-run" -app cmd/entk-run/example-app.json -daemon "$SOCK" -tenant smoke "${EXTRA[@]}")
    echo "$OUT"
    echo "$OUT" | grep -q "finished: DONE" || { echo "run $n did not finish DONE"; exit 1; }
    if [ "$n" = 1 ]; then
        ID=$(echo "$OUT" | sed -n 's/^submitted .* as \([^ ]*\) (state .*/\1/p')
        echo "== reading $ID's journal directory"
        DUMP=$("$TMP/entk-dump" "$TMP/journals/$ID") || { echo "$DUMP" | tail -n 20; echo "entk-dump found $ID's directory broken"; exit 1; }
        echo "$DUMP" | sed -n '/^tasks: /,$p'
        echo "$DUMP" | grep -Eq '^tasks: [0-9]+ DONE$' || { echo "run $n's directory does not read every task DONE"; exit 1; }
        echo "$DUMP" | grep -q '^active tasks: 0$' || { echo "run $n's directory reads tasks in flight"; exit 1; }
    fi
    if [ "$n" = 3 ]; then
        echo "$OUT" | grep -q "event stream ended: 0 dropped" || { echo "run $n's event stream did not end cleanly"; exit 1; }
    fi
done

echo "== shutting down"
kill -TERM "$DPID"
wait "$DPID" || { echo "entkd exited nonzero:"; cat "$LOG"; exit 1; }
DPID=""
cat "$LOG"
grep -q "^leaked leases: 0$" "$LOG" || { echo "daemon leaked leases (or never reported)"; exit 1; }

echo "== daemon smoke OK"
