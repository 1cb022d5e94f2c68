#!/usr/bin/env sh
# bench.sh — run the simulation benchmark suite and snapshot the results.
#
# Writes BENCH_sim.json at the repo root: a perf-trajectory snapshot with
# per-benchmark ns/op, B/op, and allocs/op, plus the raw benchmark lines
# (Go's standard text format) so two snapshots can be compared with
# benchstat:
#
#   jq -r '.raw[]' BENCH_sim.json > old.txt   # from an old snapshot
#   jq -r '.raw[]' BENCH_sim.json > new.txt   # from a new one
#   benchstat old.txt new.txt
#
# Usage:
#   scripts/bench.sh                 # hot-path suite, default iterations
#   scripts/bench.sh -benchtime 5x   # extra args go to `go test`
#   BENCH=. scripts/bench.sh         # run every benchmark (slow)
set -eu

cd "$(dirname "$0")/.."

BENCH="${BENCH:-BenchmarkCoreStep|BenchmarkDetectorStep|BenchmarkPowerStep|BenchmarkCircuitStepHeun|BenchmarkMachineFork|BenchmarkStepCycle|BenchmarkMultiDomainStep|BenchmarkBatchKernelLockstep|BenchmarkBatchKernelForked|BenchmarkTable3ResonanceTuning|BenchmarkTable3WarmDiskCache|BenchmarkRelatedSuiteWarm|BenchmarkFig5Comparison|BenchmarkGeneratorNext|BenchmarkTraceSourceNext|BenchmarkSweepSharded}"
COUNT="${COUNT:-1}"
OUT="${OUT:-BENCH_sim.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$BENCH" -count "$COUNT" "$@" . ./cmd/sweep | tee "$RAW"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" '
function jescape(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); gsub(/\t/, "\\t", s); return s }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpuname = $0 }
/^Benchmark/ {
    raw[++nraw] = $0
    name = $1; iters = $2; ns = $3
    bop = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op") bop = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    bench[++n] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}",
                         jescape(name), iters, ns, bop, allocs)
}
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", jescape(cpuname)
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", bench[i], (i < n ? "," : "")
    printf "  ],\n"
    printf "  \"raw\": [\n"
    for (i = 1; i <= nraw; i++) printf "    \"%s\"%s\n", jescape(raw[i]), (i < nraw ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"
