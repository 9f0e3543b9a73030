#!/bin/sh
# serve_check.sh is the daemon byte-identity gate: start jepod, drive a
# scripted session (create, upload the example corpus, analyze, profile on
# both engines) plus a Table II regeneration over HTTP, and byte-diff the
# raw responses against the corresponding CLI stdout or golden. The daemon
# is then stopped with SIGTERM and must drain to a zero exit. `make serve-check` and scripts/check.sh both
# call this script.
set -eu

cd "$(dirname "$0")/.."

addr=${JEPOD_ADDR:-127.0.0.1:17361}
base="http://$addr"
tmpdir=$(mktemp -d)
jepod_pid=
cleanup() {
    [ -n "$jepod_pid" ] && kill "$jepod_pid" 2>/dev/null
    rm -rf "$tmpdir"
}
trap cleanup EXIT

echo "== jepod serve gate =="
# CLI references: the daemon must reproduce these byte for byte.
go run ./cmd/jepo analyze examples/java >"$tmpdir/analyze.cli" 2>/dev/null
go run ./cmd/wekaexp -table 2 >"$tmpdir/table2.cli" 2>/dev/null

go build -o "$tmpdir/jepod" ./cmd/jepod
"$tmpdir/jepod" -addr "$addr" 2>"$tmpdir/jepod.err" &
jepod_pid=$!

# Wait for the readiness line on stderr.
i=0
until grep -q "listening on" "$tmpdir/jepod.err" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "jepod did not become ready:" >&2
        cat "$tmpdir/jepod.err" >&2
        exit 1
    fi
    sleep 0.1
done

# Scripted session: create, upload the example file at its CLI path, analyze.
sid=$(curl -sf -X POST "$base/v1/sessions" | sed 's/.*"id":[[:space:]]*"\([^"]*\)".*/\1/')
if [ -z "$sid" ]; then
    echo "jepod session create returned no id" >&2
    exit 1
fi
curl -sf -X PUT --data-binary @examples/java/EnergyDemo.java \
    "$base/v1/sessions/$sid/files/examples/java/EnergyDemo.java"
curl -sf -X POST "$base/v1/sessions/$sid/analyze" >"$tmpdir/analyze.http"
if ! cmp -s "$tmpdir/analyze.cli" "$tmpdir/analyze.http"; then
    echo "jepod session analyze differs from jepo analyze stdout" >&2
    diff -u "$tmpdir/analyze.cli" "$tmpdir/analyze.http" >&2 || true
    exit 1
fi

# Profile over HTTP, on the default engine and on the walker, vs the
# profile golden (`jepo profile` stdout without its log-path line).
curl -sf -X POST "$base/v1/sessions/$sid/profile" >"$tmpdir/profile.vm.http"
curl -sf -X POST --data '{"engine":"ast"}' "$base/v1/sessions/$sid/profile" >"$tmpdir/profile.ast.http"
for engine in vm ast; do
    if ! cmp -s examples/java/golden_profile.txt "$tmpdir/profile.$engine.http"; then
        echo "jepod session profile ($engine) differs from examples/java/golden_profile.txt" >&2
        diff -u examples/java/golden_profile.txt "$tmpdir/profile.$engine.http" >&2 || true
        exit 1
    fi
done

# Table II over HTTP vs wekaexp -table 2.
curl -sf -X POST "$base/v1/tables/2" >"$tmpdir/table2.http"
if ! cmp -s "$tmpdir/table2.cli" "$tmpdir/table2.http"; then
    echo "jepod table 2 differs from wekaexp -table 2 stdout" >&2
    diff -u "$tmpdir/table2.cli" "$tmpdir/table2.http" >&2 || true
    exit 1
fi

# Graceful stop: SIGTERM must drain to a clean exit.
kill -TERM "$jepod_pid"
if ! wait "$jepod_pid"; then
    echo "jepod did not shut down cleanly on SIGTERM:" >&2
    cat "$tmpdir/jepod.err" >&2
    exit 1
fi
jepod_pid=

echo "serve gate OK"
