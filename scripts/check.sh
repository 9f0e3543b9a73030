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
# Seeded fuzz over the measurement path: the sampler's unwrap against random
# wrapping, stale and backwards counter streams, and profiled runs over a
# source whose reads fail at random.
go test -tags faultmatrix -run FaultMatrix ./internal/rapl/... ./internal/profile/...

echo "== parser fuzz =="
# The parser lexes on demand through a small lookahead window; fuzz it past
# its seeds on every run. FuzzScan: the lexer ends on any input, and a
# lexical error anywhere in a file is exactly the error Parse returns.
# FuzzParse: no panic, and accepted source round-trips through the printer.
go test -run '^$' -fuzz '^FuzzScan$' -fuzztime 20000x ./internal/minijava/parser
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 20000x ./internal/minijava/parser

echo "== engine diff =="
# The bytecode VM and the tree-walker must be observationally identical:
# results, output, op counts and energy bits, over the Table I corpus and
# seeded random programs.
go test -tags enginediff -run EngineDiff ./internal/minijava/interp

echo "== sched diff =="
# Differential fuzz for the executor's in-process pool: random task counts
# and worker counts, each task sampling a scripted RAPL counter stream, must
# merge to identical results and commit-order joule sums at any parallelism.
go test -tags scheddiff -run SchedDifferentialFuzz ./internal/sched

echo "== golden battery: both engines, cold and warm, across -jobs =="
# The golden energy battery must reproduce the golden file bit for bit on
# both engines cold (Determinism), agree bit for bit between engines when
# each case runs twice on one instance so the VM executes its quickened
# copies (WarmExecution), survive sharding over the pool at -jobs 1, 4
# and GOMAXPROCS (SchedJobs), and reproduce the golden through the artifact
# engine, linking from parse checkouts of cached masters, cold and warm
# (EngineCache).
# The golden is also priced from its own recorded counts and must match its
# recorded bits (PricedFromCounts): the meter's samples are a pure function
# of op counts, cache hits and cache misses.
go test -run 'GoldenEnergyDeterminism|GoldenEnergyWarmExecution|GoldenEnergySchedJobs|GoldenEnergyEngineCache|GoldenEnergyPricedFromCounts' ./internal/tables

echo "== -jobs byte-identity =="
# CLI stdout must be byte-identical at any -jobs value (pool telemetry goes
# to stderr). Diff sequential vs parallel output of the analyzer and the
# classifier table. The parse store is single-flight (concurrent misses on
# one source parse it once), so the classifier table's stderr cache line
# (hits, misses, entries, parses) must be identical at both widths too.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/jepo analyze -jobs 1 examples/java >"$tmpdir/analyze.1" 2>/dev/null
go run ./cmd/jepo analyze -jobs 4 examples/java >"$tmpdir/analyze.4" 2>/dev/null
if ! cmp -s "$tmpdir/analyze.1" "$tmpdir/analyze.4"; then
    echo "jepo analyze stdout differs between -jobs 1 and -jobs 4" >&2
    diff -u "$tmpdir/analyze.1" "$tmpdir/analyze.4" >&2 || true
    exit 1
fi
go run ./cmd/wekaexp -table 2 -jobs 1 >"$tmpdir/table2.1" 2>"$tmpdir/table2.1.err"
go run ./cmd/wekaexp -table 2 -jobs 4 >"$tmpdir/table2.4" 2>"$tmpdir/table2.4.err"
if ! cmp -s "$tmpdir/table2.1" "$tmpdir/table2.4"; then
    echo "wekaexp -table 2 stdout differs between -jobs 1 and -jobs 4" >&2
    diff -u "$tmpdir/table2.1" "$tmpdir/table2.4" >&2 || true
    exit 1
fi
cache1=$(grep '^cache:' "$tmpdir/table2.1.err" || true)
cache4=$(grep '^cache:' "$tmpdir/table2.4.err" || true)
if [ -z "$cache1" ] || [ "$cache1" != "$cache4" ]; then
    echo "wekaexp -table 2 stderr cache line differs between -jobs 1 and -jobs 4" >&2
    printf '%s\n%s\n' "-jobs 1: $cache1" "-jobs 4: $cache4" >&2
    exit 1
fi

echo "== artifact store: cold then warm, read-only masters =="
# The store caches parse masters and analysis reports. The analyze, Table II
# and corpus pipelines, run twice on one fresh store, must render the same
# bytes, and the warm pass must be served from hits with no new parse. The
# masters are read-only and shared: every reader and every mutating path
# (sample, measured analyze, optimize, profile, a Table IV row) run at once
# over one store's masters under the race detector, and each master must
# still print like a fresh parse with every resolver field zero.
go test -run '^TestStoreColdThenWarm$' ./internal/service
go test -race -run '^TestReadOnlyMastersShared$' ./internal/tables

echo "== jepo corpus byte-identity =="
# No generated library class has a main, so the corpus run turns every one
# away at the entry check and links none: it is the path where programs are
# never copied, resolved or compiled. Its stdout must be byte-identical at
# -jobs 1 and -jobs 2.
go run ./cmd/jepo corpus -classifier J48 -jobs 1 >"$tmpdir/corpus.1" 2>/dev/null
go run ./cmd/jepo corpus -classifier J48 -jobs 2 >"$tmpdir/corpus.2" 2>/dev/null
if ! cmp -s "$tmpdir/corpus.1" "$tmpdir/corpus.2"; then
    echo "jepo corpus stdout differs between -jobs 1 and -jobs 2" >&2
    diff -u "$tmpdir/corpus.1" "$tmpdir/corpus.2" >&2 || true
    exit 1
fi

echo "== hostile input =="
# jepod runs client-supplied source, and a Go stack overflow kills every
# session. Under a 256 MiB stack cap, a 1 MiB nested-paren file, a 1 MiB +
# chain, unbounded recursion and recursion through the deepest expression
# the parser accepts must each come back as a typed error on both engines,
# while a benign session keeps its normal bytes.
go test -run '^TestHostileInputKeepsServing$' ./internal/service

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

echo "== jepo profile golden: both engines =="
# Probes are method labels that both engines fire at the same points of a
# call, and they charge nothing, so the profiler view and result.txt must
# match the checked-in goldens byte for byte on either engine. The final
# "per-execution log written to" line names a path and is left out.
for engine in vm ast; do
    go run ./cmd/jepo profile -engine "$engine" -result "$tmpdir/result.$engine" \
        examples/java/EnergyDemo.java >"$tmpdir/profile.$engine"
    if ! sed '$d' "$tmpdir/profile.$engine" | diff -u examples/java/golden_profile.txt -; then
        echo "jepo profile -engine $engine stdout drifted from examples/java/golden_profile.txt" >&2
        echo "regenerate (after auditing the diff) with:" >&2
        echo "    go run ./cmd/jepo profile -result examples/java/golden_profile_result.txt examples/java/EnergyDemo.java | sed '\$d' > examples/java/golden_profile.txt" >&2
        exit 1
    fi
    if ! diff -u examples/java/golden_profile_result.txt "$tmpdir/result.$engine"; then
        echo "jepo profile -engine $engine result.txt drifted from examples/java/golden_profile_result.txt" >&2
        exit 1
    fi
done

echo "== jperf golden =="
# Measurement drift shows up here: the example program's perf-stat report
# (simulated joules, cycles and elapsed time) must match the checked-in
# golden byte for byte, inline and with the runs sharded over the pool.
for jobs in 1 2; do
    if ! go run ./cmd/jperf -r 3 -jobs "$jobs" examples/java/EnergyDemo.java 2>/dev/null | diff -u examples/java/golden_jperf.txt -; then
        echo "jperf -jobs $jobs output drifted from examples/java/golden_jperf.txt" >&2
        echo "regenerate (after auditing the diff) with:" >&2
        echo "    go run ./cmd/jperf -r 3 -jobs 1 examples/java/EnergyDemo.java > examples/java/golden_jperf.txt" >&2
        exit 1
    fi
done

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
