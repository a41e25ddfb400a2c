#!/usr/bin/env bash
# Same-host A/B of two commits on the serving benchmark (perfbench/run.py).
#
# Usage:  tools/perf_ab.sh <base-ref> <head-ref> [workloads] [k]
#
#   workloads  comma-separated perfbench workloads (default steady,drift,pool)
#   k          seeds per workload, at least 10 (default 10)
#
# Each side is exported with `git archive` into its own temporary checkout
# with its own CARGO_TARGET_DIR, so each side builds its own binary and
# trains its own policy checkpoint. Exports rather than `git worktree`: a
# run that is killed leaves nothing registered in the repository. Seeds
# 1..k run interleaved, base and head back to back on the same seed, and
# the side that runs first alternates from seed to seed, so slow drift in
# the host's load falls on both sides alike.
#
# Progress goes to stderr. Standard output is one JSON object: the commits,
# both checkpoints' FNV-1a (read from perfbench's host line), the host's
# steal share over the timed runs (from /proc/stat), and per workload and
# per end-to-end metric of BENCHMARK.json the base and head medians and
# quartiles, the head's win count (strictly better in the metric's
# direction), the count of equal pairs, and every pair's values. The
# temporary checkouts are removed on exit; every process the script starts
# runs in the foreground, so none outlives it.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  sed -n '4,8p' "$0" >&2
  exit 2
fi
BASE_REF=$1
HEAD_REF=$2
WORKLOADS=${3:-steady,drift,pool}
K=${4:-10}
if ! [[ $K =~ ^[0-9]+$ ]] || (( K < 10 )); then
  echo "perf_ab: k must be an integer >= 10" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
REPO=$(pwd)
BASE=$(git rev-parse --verify "$BASE_REF^{commit}")
HEAD=$(git rev-parse --verify "$HEAD_REF^{commit}")

WORK=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT
trap 'exit 130' INT TERM

steal_jiffies() {  # prints "<steal> <total>" from the aggregate cpu line
  awk '/^cpu /{t=0; for (i=2;i<=9;i++) t+=$i; print $9, t; exit}' /proc/stat
}

for side in base head; do
  commit=$BASE
  [[ $side == head ]] && commit=$HEAD
  mkdir -p "$WORK/$side/src" "$WORK/$side/target"
  git -C "$REPO" archive "$commit" | tar -x -C "$WORK/$side/src"
  echo "perf_ab: $side = $commit: build, train, oracle self-test" >&2
  (cd "$WORK/$side/src" &&
     CARGO_TARGET_DIR="$WORK/$side/target" python3 perfbench/run.py --selftest \
       > "$WORK/$side/selftest.log" 2>&1) ||
    { tail -n 30 "$WORK/$side/selftest.log" >&2; exit 1; }
done

run_side() {  # <side> <workload> <seed>
  local out="$WORK/runs/$2.$3.$1"
  (cd "$WORK/$1/src" &&
     CARGO_TARGET_DIR="$WORK/$1/target" python3 perfbench/run.py \
       --workload "$2" --seed "$3" --seconds 10 --trace 0 > "$out" 2> "$out.err") ||
    { echo "perf_ab: $1 $2 seed $3 failed:" >&2; tail -n 20 "$out.err" >&2; exit 1; }
}

mkdir -p "$WORK/runs"
read -r steal0 total0 < <(steal_jiffies)
IFS=, read -r -a workload_list <<< "$WORKLOADS"
for w in "${workload_list[@]}"; do
  for ((seed = 1; seed <= K; ++seed)); do
    echo "perf_ab: $w seed $seed" >&2
    if (( seed % 2 )); then
      run_side base "$w" "$seed"; run_side head "$w" "$seed"
    else
      run_side head "$w" "$seed"; run_side base "$w" "$seed"
    fi
  done
done
read -r steal1 total1 < <(steal_jiffies)

python3 - "$WORK/runs" "$REPO/BENCHMARK.json" "$BASE" "$HEAD" "$WORKLOADS" "$K" \
  "$((steal1 - steal0))" "$((total1 - total0))" <<'PY'
import json, statistics, sys

runs, bench_path, base, head, workloads, k, steal, total = sys.argv[1:]
k = int(k)
metrics = json.load(open(bench_path))["end_to_end"]


def load(workload, seed, side):
    lines = open("%s/%s.%d.%s" % (runs, workload, seed, side)).read().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


out = {"base": base, "head": head, "seeds_per_workload": k,
       "host": {"steal_share": int(steal) / max(1, int(total))},
       "workloads": {}}
for w in workloads.split(","):
    pairs = [(load(w, s, "base"), load(w, s, "head")) for s in range(1, k + 1)]
    (b_info, _), (h_info, _) = pairs[0]
    out["host"]["cpu_model"] = b_info["host"]["cpu_model"]
    out["host"]["nproc"] = b_info["host"]["nproc"]
    out["checkpoint_fnv1a"] = {"base": b_info["host"]["checkpoint_fnv1a"],
                               "head": h_info["host"]["checkpoint_fnv1a"]}
    entry = {"correct": {"base": sum(b[1]["correct"] for b, _ in pairs),
                         "head": sum(h[1]["correct"] for _, h in pairs)},
             "metrics": {}}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        bv = [b[1]["metrics"][name]["value"] for b, _ in pairs]
        hv = [h[1]["metrics"][name]["value"] for _, h in pairs]
        entry["metrics"][name] = {
            "better": m["better"], "base": quartiles(bv), "head": quartiles(hv),
            "wins": sum(sign * (y - x) > 0 for x, y in zip(bv, hv)),
            "equal": sum(x == y for x, y in zip(bv, hv)),
            "pairs": [[x, y] for x, y in zip(bv, hv)]}
    out["workloads"][w] = entry
print(json.dumps(out))
PY
