#!/usr/bin/env bash
# perf_gate.sh — paired regression gate on the benchmark of record.
#
#   bash scripts/perf_gate.sh BASE      # BASE: HEAD^1, main, a commit id
#
# For every workload BENCHMARK.json declares, runs perfbench in the
# working tree it is started from (the change) and in BASE, checked out
# in a temporary git worktree: PAIRS pairs of
#
#   bash perfbench/run.sh --workload W --seed P --seconds RUN_SECONDS --trace 0
#
# with P = 1..PAIRS, alternating which side runs first. Each side builds
# the benchmark from its own sources.
#
# The gate fails when a change run is not correct (a result digest, work
# count or service response differs from the recorded one), when the
# change fails a larger share of its operations than BASE, or when an
# end-to-end metric's median over the change's runs is worse than its
# median over BASE's by more than the metric's bound in BENCHMARK.json.
# It prints, per workload, each metric's medians, their ratio, BASE's
# interquartile spread over its median and a verdict. Where that spread
# exceeds the bound, the runs cannot tell a regression from noise, and
# the verdict is "unresolved" rather than a pass or a failure, unless
# every change run reads better than every BASE run.
#
# When the change's perfbench/ or BENCHMARK.json differs from BASE's, the
# two sides would run different benchmark code: the gate says so, runs
# only the change, and checks only its correctness.
set -euo pipefail

PAIRS=5
RUN_SECONDS=10

base=${1:?usage: scripts/perf_gate.sh BASE}
cd "$(git rev-parse --show-toplevel)"
rev=$(git rev-parse --verify --quiet "$base^{commit}") || {
	echo "perf-gate: $base is not a commit" >&2
	exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; git worktree prune' EXIT

if git diff --quiet "$rev" -- perfbench BENCHMARK.json; then
	mode=paired
	git worktree add --detach --quiet "$tmp/base" "$rev"
else
	mode=correctness
	echo "perf-gate: perfbench/ or BENCHMARK.json differs from $base, so the two sides would run different benchmarks; checking only the change's correctness"
fi

# run SIDE DIR WORKLOAD SEED runs the benchmark once in DIR and keeps its
# standard output and error under $tmp.
run() {
	echo "perf-gate: $3 seed $4, $1" >&2
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$RUN_SECONDS" --trace 0) \
		>"$tmp/$1.$3.$4.out" 2>"$tmp/$1.$3.$4.err" || true
}

workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
	for p in $(seq "$PAIRS"); do
		if [ "$mode" = correctness ]; then
			run change . "$w" "$p"
		elif [ $((p % 2)) = 1 ]; then
			run base "$tmp/base" "$w" "$p"
			run change . "$w" "$p"
		else
			run change . "$w" "$p"
			run base "$tmp/base" "$w" "$p"
		fi
	done
done

python3 - "$tmp" "$mode" "$PAIRS" "$base" <<'EOF'
import json, statistics, sys

tmp, mode, pairs, base = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
bench = json.load(open("BENCHMARK.json"))
sides = ("change",) if mode == "correctness" else ("base", "change")
seeds = range(1, pairs + 1)


def result(side, w, p):
    """The run's result object (the last line of its standard output), or None."""
    lines = open(f"{tmp}/{side}.{w}.{p}.out").read().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


failures = []
print(f"perf-gate: change (working tree) against BASE {base}, {mode}, "
      f"seeds 1-{pairs}, {'BASE first on odd seeds' if mode == 'paired' else 'change only'}")
for wl in bench["workloads"]:
    w = wl["name"]
    runs = {s: [result(s, w, p) for p in seeds] for s in sides}
    share = {}
    print(f"\n{w}")
    for s in sides:
        att = sum(r["attempted"] for r in runs[s] if r)
        fail = sum(r["failed"] for r in runs[s] if r)
        share[s] = fail / att if att else 0.0
        bad = [p for p, r in zip(seeds, runs[s]) if not (r and r["correct"])]
        print(f"  {s:<6}  {pairs - len(bad)}/{pairs} runs correct, {fail}/{att} operations failed")
        for p in bad:
            if s == "change":
                failures.append(f"{w}: the change's run at seed {p} is not correct")
            tail = open(f"{tmp}/{s}.{w}.{p}.err").read().splitlines()[-5:]
            print(f"    seed {p} not correct; its standard error ends:")
            print("".join(f"      {line}\n" for line in tail), end="")
    if mode == "correctness":
        continue

    if share["change"] > share["base"]:
        failures.append(f"{w}: the change fails {share['change']:.2%} of its operations, BASE {share['base']:.2%}")

    print(f"  {'metric':<11} {'BASE':>13} {'change':>13} {'ratio':>6} {'BASE IQR':>9} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        name, bound, unit = m["name"], m["bound"], m["unit"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s] if r and name in r["metrics"]] for s in sides}
        if not vals["change"] or len(vals["base"]) < 2 or statistics.median(vals["base"]) <= 0:
            print(f"  {name:<11} unresolved: too few samples to compare")
            continue
        b, c = statistics.median(vals["base"]), statistics.median(vals["change"])
        q1, _, q3 = statistics.quantiles(vals["base"], n=4, method="inclusive")
        ratio, spread = c / b, (q3 - q1) / b
        lower = m["better"] == "lower"
        worse = ratio - 1 if lower else 1 - ratio
        all_better = max(vals["change"]) < min(vals["base"]) if lower else min(vals["change"]) > max(vals["base"])
        if spread > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "FAIL"
            failures.append(f"{w}: {name} {c:.4g} {unit} against BASE {b:.4g} {unit} "
                            f"({worse:+.1%} worse, bound {bound:.0%})")
        else:
            verdict = "ok"
        print(f"  {name:<11} {b:>9.5g} {unit:<3} {c:>9.5g} {unit:<3} {ratio:>6.3f} {spread:>9.1%} {bound:>6.0%}  {verdict}")

print()
if failures:
    print("FAIL")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print("PASS")
EOF
