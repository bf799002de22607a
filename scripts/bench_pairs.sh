#!/usr/bin/env bash
# Paired parent/change runs of the repository benchmark, judged by the
# rule a claimed speedup must meet: the change wins at least nine of
# every ten pairs and beats the parent's median by more than the spread
# of the parent's own runs.
#
#   bash scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N [TRACE]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
# example `git worktree add ../parent HEAD~1`). Each run executes the
# `command` of CHANGE_DIR's BENCHMARK.json inside one checkout with
# `--workload WORKLOAD --seed SEED --seconds <run_seconds> --trace TRACE`
# (TRACE defaults to 0, the untraced run the end-to-end metrics come
# from; 1 compares the `per_layer` metrics of traced runs instead). Both
# checkouts build once before the first pair, so no timed
# run includes a build. Pair i runs the parent first when i is odd and
# the change first when i is even.
#
# Prints one line per run, then for every compared metric of
# BENCHMARK.json each side's median and quartiles, the pairs the change
# won (ties count for neither side), and the verdict: GAIN when the
# change won at least 9 of every 10 pairs and its median beats the
# parent's by more than the parent's interquartile range; otherwise
# no-gain. It also flags REGRESSION when the change's median is worse
# than the parent's by more than the metric's `bound` (a fraction of the
# parent's median). Quartiles interpolate linearly between runs. Failed
# operations are summed per side. Every run's result line is kept in
# bench_pairs-WORKLOAD-seedSEED-traceTRACE.jsonl in the current
# directory. A run that exits non-zero stops the script.
set -euo pipefail

if [ "$#" -lt 5 ] || [ "$#" -gt 6 ]; then
  echo "usage: bash scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N [TRACE]" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
seed="$4"
pairs="$5"
trace="${6:-0}"
case "$pairs" in '' | *[!0-9]*) echo "N must be a positive integer" >&2; exit 2 ;; esac
[ "$pairs" -gt 0 ] || { echo "N must be a positive integer" >&2; exit 2; }

spec="$change/BENCHMARK.json"
mapfile -t command < <(jq -r '.command[]' "$spec")
seconds="$(jq -r '.run_seconds' "$spec")"
log="$PWD/bench_pairs-$workload-seed$seed-trace$trace.jsonl"
: >"$log"

for side in "$parent" "$change"; do
  (cd "$side" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

# run SIDE_NAME DIR PAIR: one benchmark run, its result line appended
# to the log with the side and pair it belongs to.
run() {
  local out
  out="$(cd "$2" && "${command[@]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" | tail -n 1)"
  jq -c --arg side "$1" --argjson pair "$3" '{side: $side, pair: $pair} + .' <<<"$out" >>"$log"
  echo "pair $3 $1: $(jq -c '[.failed, (.metrics | map_values(.value))]' <<<"$out")"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
done

python3 - "$spec" "$log" "$workload" "$seed" "$trace" <<'PY'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
metrics = spec["end_to_end"] if sys.argv[5] == "0" else spec["per_layer"]
print(f"\n{sys.argv[3]} seed {sys.argv[4]}: {len(runs) // 2} pairs")
for side in ("parent", "change"):
    mine = [r for r in runs if r["side"] == side]
    failed = sum(r["failed"] for r in mine)
    attempted = sum(r["attempted"] for r in mine)
    print(f"  {side}: {failed} of {attempted} operations failed")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


for metric in metrics:
    name, lower_better = metric["name"], metric["better"] == "lower"
    by_pair = {}
    for r in runs:
        value = r["metrics"].get(name, {}).get("value")
        if value is not None:
            by_pair.setdefault(r["pair"], {})[r["side"]] = value
    pairs = [p for p in by_pair.values() if len(p) == 2]
    if not pairs:
        print(f"  {name}: not reported")
        continue
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    won = sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))
    (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
    gap = (p2 - c2) if lower_better else (c2 - p2)
    iqr = p3 - p1
    gain = won * 10 >= 9 * len(pairs) and gap > iqr
    ratio = f"{c2 / p2 - 1:+.1%}" if p2 else "n/a"
    lines = [
        f"  {name} ({metric['unit']}, {metric['better']} is better):",
        f"    parent median {p2:.4g} [q1 {p1:.4g}, q3 {p3:.4g}]",
        f"    change median {c2:.4g} [q1 {c1:.4g}, q3 {c3:.4g}]",
        f"    change/parent {ratio}; change won {won}/{len(pairs)} pairs;"
        f" median gap {gap:.4g} vs parent IQR {iqr:.4g}: {'GAIN' if gain else 'no-gain'}",
    ]
    if "bound" in metric:
        regressed = -gap > metric["bound"] * abs(p2)
        lines.append(
            f"    worse than the parent by more than its bound {metric['bound']}:"
            f" {'REGRESSION' if regressed else 'no'}"
        )
    print("\n".join(lines))
PY
