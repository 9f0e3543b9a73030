#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it with the given
# arguments (see bench/README.md). The harness works from the checkout root.
# Go's build cache, the built binaries and every file a run writes stay under
# .bench_build/ in the checkout; XDG_CONFIG_HOME keeps the go command's
# configuration and telemetry files there too.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
