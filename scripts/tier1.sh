#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md). Run from the repository root:
#
#	sh scripts/tier1.sh
#
# Fails on: build errors, vet diagnostics, unformatted files, test failures,
# or data races in the solver/batch driver.
set -eu

cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test"
go test ./...

echo "== perfbench module (build, vet, test; compiles against the repo's API)"
(
	cd perfbench
	export GOWORK=off GOPROXY=off GOTOOLCHAIN=local
	go build -o /dev/null .
	go vet ./...
	go test ./...
)

echo "== go test -race (parallel driver must be race-clean)"
go test -race ./internal/core/... ./internal/corpus/...

echo "== parallel wave executor differential (-race, GOMAXPROCS above cores)"
GOMAXPROCS=8 go test -race -short -count=1 \
	-run 'TestParallelSolverMatchesSequential|TestParallelDifferentialGOMAXPROCS|TestParallelCancellationMidWave|TestPrepassDifferentialCorpusParallel|TestParallelPureCounters' \
	./internal/core

echo "== prepass differential + large-generator smoke (small scale)"
go test -short -count=1 \
	-run 'TestPrepassDifferentialCorpus$|TestGenerateLargePrepassCollapsesChains' \
	./internal/core ./internal/corpus

echo "== fuzz smoke (frontend + solver + interner + snapshot decoder must never panic)"
go test -run='^$' -fuzz=FuzzLoad -fuzztime=10s ./internal/frontend
go test -run='^$' -fuzz=FuzzSolve -fuzztime=10s ./internal/core
go test -run='^$' -fuzz=FuzzBitsIntern -fuzztime=10s ./internal/core
go test -run='^$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/export
go test -run='^$' -fuzz=FuzzGraphSnapshotDecode -fuzztime=10s ./internal/incr

if command -v curl >/dev/null 2>&1; then
	echo "== chaos smoke (overload + fault injection + crash-safe restart)"
	sh scripts/chaos_smoke.sh
else
	echo "== chaos smoke (curl not installed; skipped)"
fi

if command -v govulncheck >/dev/null 2>&1; then
	echo "== govulncheck"
	govulncheck ./...
else
	echo "== govulncheck (not installed; skipped)"
fi

echo "tier-1 OK"
