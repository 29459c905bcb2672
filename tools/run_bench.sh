#!/usr/bin/env bash
# Runs the Google-Benchmark microbenchmarks and records one BENCH_<name>.json
# baseline per executable. Future optimization PRs diff their numbers against
# these files:
#   tools/run_bench.sh build /tmp/fresh
#   tools/bench_compare.py /tmp/fresh bench/baselines
# (fails on regression beyond the gate, overridable per family with
# --tolerance-for PREFIX=PCT). The sharded runtime is measured end to end
# by bench/e2e, not here.
#
# Usage: tools/run_bench.sh [build-dir] [out-dir]
#   build-dir  CMake build tree (default: build; configured+built if missing)
#   out-dir    where BENCH_*.json land (default: bench/baselines)
#
# A missing benchmark executable or a benchmark exiting nonzero FAILS the
# whole run (no silent partial baselines): a partial BENCH_*.json set would
# make the next regression gate quietly skip the missing families.
#
# Env:
#   STEM_BENCH_MIN_TIME  per-benchmark min running time in seconds (default 0.05)
#
# Every BENCH_*.json carries logical_cpus in its context header, so a
# reader (or bench_compare) can tell a single-core container recording from
# a many-core one without out-of-band notes.
#
# Where taskset exists and more than one CPU is online, each Google
# Benchmark executable runs pinned to one CPU (the last one this process
# may use), recorded as pinned_cpu beside logical_cpus ("none" when
# unpinned): unpinned runs of identical code have differed by 10-40% as
# the scheduler moves the benchmark thread.
#
# Comparing a change against its parent: build both trees, then run this
# script on each in alternating order (parent, change, change, parent, ...)
# for several rounds into separate out-dirs, so drift in the host's load
# falls on both sides alike; compare the per-round medians with
# tools/bench_compare.py and believe a gap only if it holds in most rounds.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench/baselines}
MIN_TIME=${STEM_BENCH_MIN_TIME:-0.05}
LOGICAL_CPUS=$(nproc)

# The CPU to pin to: the last entry of this process's affinity list
# ("0-3,8,10-11" -> 11).
PIN=()
PINNED_CPU=none
if command -v taskset >/dev/null 2>&1 && [[ "$LOGICAL_CPUS" -gt 1 ]]; then
  affinity=$(taskset -cp $$)
  affinity=${affinity##*: }
  last=${affinity##*,}
  PINNED_CPU=${last##*-}
  PIN=(taskset -c "$PINNED_CPU")
fi

# The e1-e4, e9-e11 microbenchmarks use BENCHMARK_MAIN and understand
# --benchmark_format=json; e5-e8, e12, and fig* are self-driving studies
# with their own output format, so they are not part of the JSON baseline.
GBENCH_TARGETS=(
  e1_temporal_ops
  e2_spatial_ops
  e3_composite_eval
  e4_spatial_index
  e9_eventlang
  e10_pubsub
  e11_engine_throughput
  e13_reliable_link
)

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j"$(nproc)"
fi

mkdir -p "$OUT_DIR"

# Fail loudly up front if any benchmark binary is missing: a partial
# baseline set silently weakens every future bench_compare gate.
missing=()
for target in "${GBENCH_TARGETS[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$target" ]]; then
    missing+=("$target")
  fi
done
if [[ "${#missing[@]}" -gt 0 ]]; then
  echo "error: benchmark executable(s) not built: ${missing[*]}" >&2
  echo "       (is Google Benchmark installed? configure with -DSTEM_BUILD_BENCH=ON)" >&2
  exit 1
fi

for target in "${GBENCH_TARGETS[@]}"; do
  exe="$BUILD_DIR/bench/$target"
  out="$OUT_DIR/BENCH_${target}.json"
  echo "bench: $target -> $out (logical_cpus=$LOGICAL_CPUS, pinned_cpu=$PINNED_CPU)" >&2
  status=0
  "${PIN[@]}" "$exe" --benchmark_min_time="$MIN_TIME" --benchmark_format=json \
    --benchmark_context=logical_cpus="$LOGICAL_CPUS",pinned_cpu="$PINNED_CPU" >"$out" || status=$?
  if [[ "$status" -ne 0 ]]; then
    rm -f "$out"  # never leave a truncated baseline behind
    echo "error: $target exited with status $status; baseline run aborted" >&2
    exit 1
  fi
done

# e12 is a self-driving study (plain-text table, no --benchmark_format):
# record its output verbatim so the aggregation trade-off numbers have a
# baseline file too. Its internal monotonicity checks make it exit nonzero
# on nonsense results, which aborts the baseline run like the JSON ones.
e12="$BUILD_DIR/bench/e12_aggregation"
if [[ ! -x "$e12" ]]; then
  echo "error: benchmark executable not built: e12_aggregation" >&2
  exit 1
fi
echo "bench: e12_aggregation -> $OUT_DIR/BENCH_e12_aggregation.txt" >&2
status=0
"$e12" >"$OUT_DIR/BENCH_e12_aggregation.txt" || status=$?
if [[ "$status" -ne 0 ]]; then
  rm -f "$OUT_DIR/BENCH_e12_aggregation.txt"
  echo "error: e12_aggregation exited with status $status; baseline run aborted" >&2
  exit 1
fi

# Headline figures for CHANGES.md / PR summaries.
python3 - "$OUT_DIR" <<'EOF'
import json, os, sys

out_dir = sys.argv[1]

def rate(path, name):
    try:
        with open(os.path.join(out_dir, path)) as f:
            data = json.load(f)
    except OSError:
        return None
    for b in data.get("benchmarks", []):
        if b["name"] == name:
            return b.get("items_per_second")
    return None

def ns_per_op(path, name):
    # e2 reports plain ns/op without an items_per_second counter.
    try:
        with open(os.path.join(out_dir, path)) as f:
            data = json.load(f)
    except OSError:
        return None
    for b in data.get("benchmarks", []):
        if b["name"] == name and b.get("time_unit") == "ns":
            return b.get("cpu_time")
    return None

def fmt(v):
    return "n/a" if v is None else f"{v / 1e6:.2f}M/s"

spatial_ns = ns_per_op("BENCH_e2_spatial_ops.json", "BM_SpatialPointField/inside/64")
spatial = None if spatial_ns is None else 1e9 / spatial_ns

print("-- baseline headline figures --")
print(f"engine throughput (1 def):   {fmt(rate('BENCH_e11_engine_throughput.json', 'BM_DefinitionCount/1'))} entities/s")
print(f"engine throughput (64 defs): {fmt(rate('BENCH_e11_engine_throughput.json', 'BM_DefinitionCount/64'))} entities/s")

# Definition-count scaling: with the segment-node threshold index an
# arrival's dispatch cost is output-sensitive, so the 4096- and 16384-
# definition legs should hold within ~2x of the 64-definition one.
d64 = rate("BENCH_e11_engine_throughput.json", "BM_DefinitionCount/64")
for n in (4096, 16384):
    r = rate("BENCH_e11_engine_throughput.json", f"BM_DefinitionCount/{n}")
    ratio = "n/a" if not (r and d64) else f"{d64 / r:.2f}x the 64-def cost"
    print(f"engine throughput ({n} defs): {fmt(r)} entities/s ({ratio})")
print(f"temporal op (before, i-i):   {fmt(rate('BENCH_e1_temporal_ops.json', 'BM_TemporalOp/before_ii'))} ops/s")
print(f"allen classify:              {fmt(rate('BENCH_e1_temporal_ops.json', 'BM_AllenClassify'))} ops/s")
print(f"spatial point-in-field (64): {fmt(spatial)} ops/s")

print(f"batched ingest (batch=256):  {fmt(rate('BENCH_e11_engine_throughput.json', 'BM_BatchSize/256'))} entities/s")

def counter(path, name, key):
    try:
        with open(os.path.join(out_dir, path)) as f:
            data = json.load(f)
    except OSError:
        return None
    for b in data.get("benchmarks", []):
        if b["name"] == name:
            return b.get(key)
    return None

# Registration-path scaling (one timed iteration per leg; the name
# carries the /iterations:1 suffix): a million near-duplicate threshold
# definitions must register in seconds, with resident memory beside it.
for n in (16384, 131072, 1048576):
    name = f"BM_RegistrationScale/{n}/iterations:1"
    r = rate("BENCH_e11_engine_throughput.json", name)
    rss = counter("BENCH_e11_engine_throughput.json", name, "rss_mb")
    secs = "n/a" if not r else f"{n / r:.2f}s"
    rss_s = "n/a" if rss is None else f"{rss:.0f} MB"
    print(f"registration ({n:>7} defs): {fmt(r)} defs/s ({secs}, {rss_s} resident)")

# The per-arrival entity-copy lever: reference deep-copy observe vs the
# prestored shared-storage path the sharded runtime workers use.
ref = rate("BENCH_e11_engine_throughput.json", "BM_SharedArrival/0")
pre = rate("BENCH_e11_engine_throughput.json", "BM_SharedArrival/1")
win = "n/a" if not (ref and pre) else f"{(pre / ref - 1) * 100:+.1f}%"
print(f"shared-arrival (64 buffered): {fmt(ref)} -> {fmt(pre)} entities/s ({win} vs deep copy)")

# Reliable sessions (PR 7): exactly-once delivery rate as link loss climbs,
# with the retransmission cost beside it; the plain leg is the
# fire-and-forget reference on the identical link.
for loss in (0, 5, 20):
    name = f"BM_ReliableLink/{loss}"
    rtx = counter("BENCH_e13_reliable_link.json", name, "retransmits_per_send")
    rtx_s = "n/a" if rtx is None else f"{rtx:.3f}"
    print(f"reliable link ({loss:>2}% loss):    {fmt(rate('BENCH_e13_reliable_link.json', name))} entities/s ({rtx_s} retransmits/send)")
print(f"plain link (reference):      {fmt(rate('BENCH_e13_reliable_link.json', 'BM_ReliableLink_PlainBaseline'))} entities/s")
EOF
