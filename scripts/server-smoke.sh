#!/bin/sh
# server-smoke.sh — binary-level check of kodan-server's debug surface.
# Starts the server on loopback with the debug listener and a 100 ms
# flight-recorder interval, waits for /readyz to return 200, requires
# /debug/slo and /debug/recorder to serve JSON (the recorder at
# intervalMs 100 with at least one sample), then sends SIGTERM and
# requires exit code 0. Needs curl and jq. Run by scripts/verify.sh and
# .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")/.."

dir=$(mktemp -d)
pid=
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2> /dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

fail() {
    echo "server-smoke: $*" >&2
    cat "$dir/server.log" >&2
    exit 1
}

# poll DESCRIPTION COMMAND... retries COMMAND every 100 ms for up to 10 s
# while the server is alive.
poll() {
    what=$1
    shift
    tries=0
    until "$@"; do
        kill -0 "$pid" 2> /dev/null || fail "server exited while waiting for $what"
        tries=$((tries + 1))
        [ "$tries" -le 100 ] || fail "timed out waiting for $what"
        sleep 0.1
    done
}

addr=127.0.0.1:18480
debug=127.0.0.1:18481
go build -o "$dir/kodan-server" ./cmd/kodan-server
"$dir/kodan-server" -addr "$addr" -debug-addr "$debug" -sample 100ms -v=false 2> "$dir/server.log" &
pid=$!

ready() {
    [ "$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz")" = 200 ]
}
poll "/readyz to return 200" ready

slo() {
    curl -sf "http://$debug/debug/slo" | jq -e '(.objectives | length) > 0' > /dev/null
}
poll "/debug/slo to serve a JSON report" slo

recorder() {
    curl -sf "http://$debug/debug/recorder" |
        jq -e '.intervalMs == 100 and (.samples | length) >= 1' > /dev/null
}
poll "/debug/recorder to serve intervalMs 100 with a sample" recorder

kill -TERM "$pid"
code=0
wait "$pid" || code=$?
pid=
[ "$code" -eq 0 ] || fail "exit code $code after SIGTERM, want 0"
echo "server-smoke: OK"
