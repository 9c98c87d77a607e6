#!/bin/sh
# Benchmark snapshot: run the full ptrbench evaluation over the corpus and
# write BENCH_<stamp>.json in the output directory — wall time, per-run
# solver steps, memoization and cycle-elimination counters ride along inside
# the ptrbench JSON — plus BENCH_<stamp>.bench.txt, a benchstat-compatible
# sample of the solver representation, preprocessor and front-end
# benchmarks (go test -bench, -benchmem) so future changes can show
# statistically grounded deltas:
#
#	benchstat BENCH_old.bench.txt BENCH_new.bench.txt
#
# plus BENCH_<stamp>.incr.txt, the incremental re-analysis pass (ptrbench
# -incr): warm resume vs cold solve per seeded single-function edit,
#
# plus BENCH_<stamp>.par.txt, a benchstat sample of the sequential solver
# vs the work-stealing wave executor (BenchmarkParallelSolve on bc,
# compiler and less):
#
#	benchstat -col /name BENCH_<stamp>.par.txt   # seq vs par8 per program
#
# plus BENCH_<stamp>.prep.txt, the offline-prepass pass (ptrbench -prep):
# prepass + hash-consed sets vs their ablation on synthetic hub-and-chains
# programs up to half a million statements — wall time, barrier-sampled
# peak live heap, cells collapsed and sets interned, with the fact count
# cross-checked between modes,
#
# Usage (from anywhere; REPEAT controls ptrbench timing repetitions):
#
#	sh scripts/bench.sh            # full snapshot: 10 benchstat samples
#	sh scripts/bench.sh -short     # CI smoke: 3 samples, small programs
#	REPEAT=5 sh scripts/bench.sh
#	BENCH_DIR=out sh scripts/bench.sh    # write snapshots under out/
#	BENCH_TAG=wave sh scripts/bench.sh   # stamp BENCH_<date>.wave.*
#
# The JSON file is self-describing: {"date", "wall_seconds", "repeat",
# "evaluation": <ptrbench -json document>}.
set -eu

cd "$(dirname "$0")/.."

# bench_stamp prints the snapshot stamp shared by every output file: the
# UTC date, plus BENCH_TAG when set (so a re-run on the same day does not
# clobber a committed baseline).
bench_stamp() {
	stamp="$(date -u +%Y-%m-%d)"
	if [ -n "${BENCH_TAG:-}" ]; then
		stamp="${stamp}.${BENCH_TAG}"
	fi
	printf '%s' "$stamp"
}

# bench_path prints the output path for one snapshot artifact suffix,
# rooted at BENCH_DIR (repository root by default).
bench_path() {
	printf '%s/BENCH_%s%s' "${BENCH_DIR:-.}" "$(bench_stamp)" "$1"
}

short=0
for arg in "$@"; do
	case "$arg" in
	-short) short=1 ;;
	*)
		echo "usage: sh scripts/bench.sh [-short]" >&2
		exit 2
		;;
	esac
done

repeat="${REPEAT:-1}"
mkdir -p "${BENCH_DIR:-.}"
out="$(bench_path .json)"
stat="$(bench_path .bench.txt)"
tmp="${out}.tmp"

if [ "$short" = 1 ]; then
	count=3
	benchtime=5x
	filter='Benchmark(SolverRepresentation|Preprocess|Frontend)/(anagram|less|compiler|large|casts)'
else
	count=10
	benchtime=20x
	filter='Benchmark(SolverRepresentation|Preprocess|Frontend)'
fi

start="$(date +%s)"
go run ./cmd/ptrbench -json -repeat "$repeat" >"$tmp"
end="$(date +%s)"
wall=$((end - start))

{
	printf '{\n'
	printf '  "date": "%s",\n' "$(bench_stamp)"
	printf '  "wall_seconds": %d,\n' "$wall"
	printf '  "repeat": %d,\n' "$repeat"
	printf '  "evaluation": '
	cat "$tmp"
	printf '}\n'
} >"$out"
rm -f "$tmp"
echo "wrote $out (${wall}s)" >&2

# Benchstat sample: -count runs of each benchmark so benchstat can attach
# confidence intervals; fixed -benchtime keeps run counts comparable.
go test -run '^$' -bench "$filter" -benchmem -count "$count" -benchtime "$benchtime" . >"$stat"
echo "wrote $stat ($count samples per benchmark)" >&2

# Incremental pass: warm resume vs cold solve over seeded single-function
# edits (BENCH_<stamp>.incr.txt). The run self-checks — a warm/cold answer
# disagreement aborts with a non-zero exit.
incrout="$(bench_path .incr.txt)"
if [ "$short" = 1 ]; then
	go run ./cmd/ptrbench -incr -program anagram -repeat 3 -edits 2 >"$incrout"
else
	go run ./cmd/ptrbench -incr -repeat 9 -edits 3 >"$incrout"
fi
echo "wrote $incrout" >&2

# Parallel pass: sequential vs work-stealing executor on the largest
# programs (BENCH_<stamp>.par.txt). Single-core hosts measure the
# executor's overhead, not a speedup — compare like against like.
parout="$(bench_path .par.txt)"
if [ "$short" = 1 ]; then
	go test -run '^$' -bench 'BenchmarkParallelSolve/less/' -benchmem \
		-count 3 -benchtime 5x . >"$parout"
else
	go test -run '^$' -bench BenchmarkParallelSolve -benchmem \
		-count "$count" -benchtime "$benchtime" . >"$parout"
fi
echo "wrote $parout" >&2

# Prepass pass: offline constraint reduction + hash-consed sets vs their
# ablation at scale (BENCH_<stamp>.prep.txt). The run self-checks — a fact
# count disagreement between the modes aborts with a non-zero exit.
prepout="$(bench_path .prep.txt)"
if [ "$short" = 1 ]; then
	go run ./cmd/ptrbench -prep -prep-stmts 25000 -repeat 2 >"$prepout"
else
	go run ./cmd/ptrbench -prep -prep-stmts 500000 -repeat 3 >"$prepout"
fi
echo "wrote $prepout" >&2
