#!/bin/sh
# check.sh runs the full hygiene gate: formatting, vet, and the test suite
# under the race detector. CI and `make check` both call this script.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race ./...

echo "== go benchmarks, one iteration each =="
# The root benchmarks (BenchmarkTable1 rows, BenchmarkInterpCalls,
# BenchmarkInterpRecursion, ...) decide mechanisms inside the interpreter and
# meter that bench/'s end-to-end workloads are too coarse to see. One
# iteration each keeps them compiling and running, so a benchmark that calls
# b.Fatal fails the gate.
go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench module: go vet, go test =="
# The benchmark (bench/) is its own module, so the root ./... patterns skip
# it. Its tracer imports the library's internal packages directly, so a
# library change can break the benchmark while every root gate stays green.
(cd bench && go vet ./... && go test ./...)

echo "== fault matrix =="
go test -tags faultmatrix -run FaultMatrix ./internal/rapl/... ./internal/profile/...

echo "== engine diff =="
# The bytecode VM and the tree-walker must be observationally identical:
# results, output, op counts and energy bits, over the Table I corpus and
# seeded random programs.
go test -tags enginediff -run EngineDiff ./internal/minijava/interp

echo "== sched diff =="
# Differential fuzz for the executor's in-process pool: random task counts,
# worker counts and RAPL read-fault rates must merge to identical results
# and Health ledgers at any parallelism.
go test -tags scheddiff -run SchedDifferentialFuzz ./internal/sched

echo "== dist diff =="
# Differential fuzz for the executor's process placement over the dist
# transport: random task counts, worker counts and chaos plans (kills,
# hangs, slow-walks, corrupted replies) on pipe workers must merge to
# results, commit ledgers and Health tallies that are bit-identical to the
# in-process run.
go test -tags distdiff -run DistDifferentialFuzz ./internal/dist

echo "== golden battery: both engines, cold and warm, across -jobs and -workers =="
# The golden energy battery must reproduce the golden file bit for bit on
# both engines cold (Determinism), agree bit for bit between engines when
# each case runs twice on one instance so the VM executes its quickened
# copies (WarmExecution), survive sharding over the pool at -jobs 1, 4
# and GOMAXPROCS (SchedJobs), survive process placement on pipe workers
# speaking the JSON protocol, with a mid-map kill (DistWorkers), and
# reproduce the golden through the artifact engine, linking from parse
# checkouts of cached masters, cold and warm (EngineCache).
# The golden is also priced from its own recorded counts and must match its
# recorded bits (PricedFromCounts): the meter's samples are a pure function
# of op counts, cache hits and cache misses.
go test -run 'GoldenEnergyDeterminism|GoldenEnergyWarmExecution|GoldenEnergySchedJobs|GoldenEnergyDistWorkers|GoldenEnergyEngineCache|GoldenEnergyPricedFromCounts' ./internal/tables

echo "== -jobs byte-identity =="
# CLI stdout must be byte-identical at any -jobs value (pool telemetry goes
# to stderr). Diff sequential vs parallel output of the analyzer and the
# classifier table.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/jepo analyze -jobs 1 examples/java >"$tmpdir/analyze.1" 2>/dev/null
go run ./cmd/jepo analyze -jobs 4 examples/java >"$tmpdir/analyze.4" 2>/dev/null
if ! cmp -s "$tmpdir/analyze.1" "$tmpdir/analyze.4"; then
    echo "jepo analyze stdout differs between -jobs 1 and -jobs 4" >&2
    diff -u "$tmpdir/analyze.1" "$tmpdir/analyze.4" >&2 || true
    exit 1
fi
go run ./cmd/wekaexp -table 2 -jobs 1 >"$tmpdir/table2.1" 2>/dev/null
go run ./cmd/wekaexp -table 2 -jobs 4 >"$tmpdir/table2.4" 2>/dev/null
if ! cmp -s "$tmpdir/table2.1" "$tmpdir/table2.4"; then
    echo "wekaexp -table 2 stdout differs between -jobs 1 and -jobs 4" >&2
    diff -u "$tmpdir/table2.1" "$tmpdir/table2.4" >&2 || true
    exit 1
fi

echo "== artifact store: cold then warm =="
# The store caches parse masters and analysis reports. The analyze, Table II
# and corpus pipelines, run twice on one fresh store, must render the same
# bytes, and the warm pass must be served from hits with no new parse.
go test -run '^TestStoreColdThenWarm$' ./internal/service

echo "== jepo corpus byte-identity =="
# The corpus run links every generated library class and runs none (they
# have no main), so it is the path where programs are never compiled. Its
# stdout must be byte-identical at -jobs 1 and -jobs 2.
go run ./cmd/jepo corpus -classifier J48 -jobs 1 >"$tmpdir/corpus.1" 2>/dev/null
go run ./cmd/jepo corpus -classifier J48 -jobs 2 >"$tmpdir/corpus.2" 2>/dev/null
if ! cmp -s "$tmpdir/corpus.1" "$tmpdir/corpus.2"; then
    echo "jepo corpus stdout differs between -jobs 1 and -jobs 2" >&2
    diff -u "$tmpdir/corpus.1" "$tmpdir/corpus.2" >&2 || true
    exit 1
fi

echo "== -workers byte-identity =="
# Process placement is a pure wall-clock knob too: the corpus kind and
# jperf's measure kind, run on two re-exec'd worker processes, must print
# exactly what the in-process run prints.
go run ./cmd/jepo corpus -classifier J48 -workers 2 >"$tmpdir/corpus.w2" 2>/dev/null
if ! cmp -s "$tmpdir/corpus.1" "$tmpdir/corpus.w2"; then
    echo "jepo corpus stdout differs between -jobs 1 and -workers 2" >&2
    diff -u "$tmpdir/corpus.1" "$tmpdir/corpus.w2" >&2 || true
    exit 1
fi
go run ./cmd/jperf -r 3 -jobs 1 examples/java/EnergyDemo.java >"$tmpdir/jperf.1" 2>/dev/null
go run ./cmd/jperf -r 3 -workers 2 examples/java/EnergyDemo.java >"$tmpdir/jperf.w2" 2>/dev/null
if ! cmp -s "$tmpdir/jperf.1" "$tmpdir/jperf.w2"; then
    echo "jperf stdout differs between -jobs 1 and -workers 2" >&2
    diff -u "$tmpdir/jperf.1" "$tmpdir/jperf.w2" >&2 || true
    exit 1
fi

echo "== -workers byte-identity under faults =="
# The fault drill: -workers 4 with one worker process killed and one hung
# mid-map must quarantine both nodes, finish the table, and keep stdout
# byte-identical to the sequential run. The quarantine tally is asserted
# from the executor's telemetry line on stderr.
JEPO_DIST_FAULTS="1:kill@1;2:hang@0" go run ./cmd/wekaexp -table 2 -workers 4 -node-deadline 5s \
    >"$tmpdir/table2.w4" 2>"$tmpdir/table2.w4.err"
if ! cmp -s "$tmpdir/table2.1" "$tmpdir/table2.w4"; then
    echo "wekaexp -table 2 stdout differs between -workers 1 and faulted -workers 4" >&2
    diff -u "$tmpdir/table2.1" "$tmpdir/table2.w4" >&2 || true
    exit 1
fi
if ! grep -q 'quarantined=2' "$tmpdir/table2.w4.err"; then
    echo "telemetry did not record the two quarantined workers:" >&2
    cat "$tmpdir/table2.w4.err" >&2
    exit 1
fi

echo "== jepo analyze golden =="
# Rule drift shows up here the way energy drift shows up in golden_test.go:
# the analyzer's measured diagnostic listing over the example corpus must
# match the checked-in golden byte for byte.
if ! go run ./cmd/jepo analyze examples/java | diff -u examples/java/golden_analyze.txt -; then
    echo "jepo analyze output drifted from examples/java/golden_analyze.txt" >&2
    echo "regenerate (after auditing the diff) with:" >&2
    echo "    go run ./cmd/jepo analyze examples/java > examples/java/golden_analyze.txt" >&2
    exit 1
fi

echo "== jperf disasm golden =="
# Compiler drift shows up as a bytecode diff: the example program's
# disassembly must match the checked-in golden byte for byte.
if ! go run ./cmd/jperf disasm examples/java/EnergyDemo.java | diff -u examples/java/golden_disasm.txt -; then
    echo "jperf disasm output drifted from examples/java/golden_disasm.txt" >&2
    echo "regenerate (after auditing the diff) with:" >&2
    echo "    go run ./cmd/jperf disasm examples/java/EnergyDemo.java > examples/java/golden_disasm.txt" >&2
    exit 1
fi

echo "== jperf disasm -warm golden =="
# Runtime-quickening drift shows up the same way: after one main execution
# the instance's patched code copies must match the checked-in warm golden.
if ! go run ./cmd/jperf disasm -warm examples/java/EnergyDemo.java | diff -u examples/java/golden_disasm_warm.txt -; then
    echo "warm disassembly drifted from examples/java/golden_disasm_warm.txt" >&2
    echo "regenerate (after auditing the diff) with:" >&2
    echo "    go run ./cmd/jperf disasm -warm examples/java/EnergyDemo.java > examples/java/golden_disasm_warm.txt" >&2
    exit 1
fi

# The session daemon must be a byte-transparent transport: a scripted
# session analyze and a Table II regeneration over HTTP must match the CLI
# stdout byte for byte, and SIGTERM must drain to a clean exit. The script
# prints its own "== jepod serve gate ==" header.
sh scripts/serve_check.sh

echo "OK"
