# Standard entry points for the reproduction repo.

.PHONY: build test check serve-check enginediff faultmatrix scheddiff distdiff

build:
	go build ./...

test:
	go test ./...

# Formatting, vet and the race-enabled test suite in one gate.
check:
	sh scripts/check.sh

# Daemon byte-identity gate: start jepod, drive a scripted session analyze
# and a Table II regeneration over HTTP, byte-diff both against CLI stdout,
# then SIGTERM the daemon and require a clean drain.
serve-check:
	sh scripts/serve_check.sh

# Differential engine fuzz: the bytecode VM and the tree-walker must agree
# bit-for-bit (results, output, op counts, Joules) on the Table I corpus and
# seeded random programs.
enginediff:
	go test -tags enginediff -run EngineDiff ./internal/minijava/interp

# Seeded fault-injection fuzz over the measurement layer: random fault mixes
# against the resilient source, the sampler unwrap, and profiled runs.
faultmatrix:
	go test -tags faultmatrix -run FaultMatrix ./internal/rapl/... ./internal/profile/...

# Differential fuzz for the executor's in-process pool: random task counts,
# worker counts and RAPL read-fault rates must produce identical merged
# results and Health ledgers at any parallelism.
scheddiff:
	go test -tags scheddiff -run SchedDifferentialFuzz ./internal/sched

# Differential fuzz for the executor's process placement: random chaos plans
# (kills, hangs, slow-walks, corrupt replies) on pipe workers must merge to
# results, commit ledgers and Health tallies bit-identical to the in-process
# run.
distdiff:
	go test -tags distdiff -run DistDifferentialFuzz ./internal/dist