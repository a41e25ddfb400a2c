#!/usr/bin/env bash
# Run the micro-kernel benchmarks and record the results in
# BENCH_kernels.json at the repo root.
#
# Usage:  tools/run_bench_kernels.sh [build-dir] [output-json]
#
# The output file keeps a "baseline" section (the pre-optimization seed
# numbers, captured once) and refreshes the "current" section plus a
# per-benchmark "speedup" table on every run. Requires python3 for the
# JSON merge; the raw google-benchmark JSON is left next to the output as
# <output>.raw in case the merge is not wanted.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}
OUT=${2:-BENCH_kernels.json}
BENCH="$BUILD_DIR/bench/bench_micro_kernels"
FILTER=${BENCH_FILTER:-'Conv2d|Quantize|Gemm'}

if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not built (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

"$BENCH" --benchmark_filter="$FILTER" \
         --benchmark_format=json \
         --benchmark_min_time=0.5 > "$OUT.raw"

# Context recorded alongside the numbers: the kernel thread setting the
# run actually used, the real core count, and which int8 depthwise path the
# build compiled (the binary reports it in its own JSON context).
# google-benchmark's num_cpus reports the cgroup-visible count, which lies
# inside containers.
MURMUR_BENCH_THREADS="${MURMUR_KERNEL_THREADS:-unset}" \
MURMUR_BENCH_CORES="$(nproc)" \
python3 - "$OUT.raw" "$OUT" <<'PY'
import json, os, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
raw = json.load(open(raw_path))

current = {
    b["name"]: {"real_time_ns": round(b["real_time"], 1),
                "cpu_time_ns": round(b["cpu_time"], 1)}
    for b in raw["benchmarks"]
}

try:
    doc = json.load(open(out_path))
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}

# Preserve the recorded baseline; seed it from this run if absent.
baseline = doc.get("baseline") or current
speedup = {
    name: round(baseline[name]["real_time_ns"] / v["real_time_ns"], 2)
    for name, v in current.items()
    if name in baseline and v["real_time_ns"] > 0
}

# fp32-vs-int8 speedup per shape: pair each *Int8 benchmark with its fp32
# twin (the same name minus "Int8"). Benchmarks without a twin (e.g. the
# quantize-codec microbench) are skipped.
quantized = {}
for name, v in current.items():
    if "Int8" not in name:
        continue
    twin = name.replace("Int8", "", 1)
    if twin in current and v["real_time_ns"] > 0:
        quantized[name] = {
            "fp32_ns": current[twin]["real_time_ns"],
            "int8_ns": v["real_time_ns"],
            "speedup_vs_fp32": round(
                current[twin]["real_time_ns"] / v["real_time_ns"], 2),
        }

json.dump(
    {
        "context": {
            "host": raw.get("context", {}).get("host_name", ""),
            "num_cpus": int(os.environ.get("MURMUR_BENCH_CORES", "0") or 0),
            "mhz_per_cpu": raw.get("context", {}).get("mhz_per_cpu", 0),
            "kernel_threads": os.environ.get("MURMUR_BENCH_THREADS", "unset"),
            "int8_depthwise_vectorized":
                raw.get("context", {}).get("int8_depthwise_vectorized")
                == "true",
        },
        "baseline": baseline,
        "current": current,
        "speedup_vs_baseline": speedup,
        "quantized": quantized,
    },
    open(out_path, "w"),
    indent=2,
)
print(f"wrote {out_path}")
for name, s in sorted(speedup.items()):
    print(f"  {name:32s} {s:6.2f}x")
PY

# Regression gate: fail on any per-shape real_time_ns >10% above the
# committed baseline (skipped automatically when the file is untracked).
tools/check_bench_regress.py "$OUT"
