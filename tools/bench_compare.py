#!/usr/bin/env python3
"""Diffs fresh Google-Benchmark JSON results against recorded baselines.

Usage:
  tools/bench_compare.py FRESH BASELINE [--tolerance PCT]
      [--tolerance-for PREFIX=PCT ...]

FRESH and BASELINE are either two BENCH_*.json files or two directories
holding them (matched by file name). For every benchmark name present in
both files, the tracked counter (items_per_second when reported, else
inverse cpu_time) is compared; the script exits nonzero when any
benchmark regresses by more than --tolerance percent (default 10). A file
recorded with --benchmark_repetitions=N holds N runs per name; each side
is then compared on the median of its runs, and the run counts and each
side's coefficient of variation (sample standard deviation over mean,
0 for a single run) are printed beside the rates. A name whose CV on
either side exceeds its tolerance is marked `noisy`: its verdict is
reported as usual, but the spread alone could decide it.

Wall-clock benchmark families are noisier than single-threaded CPU-time
ones — anything measured with UseRealTime depends on scheduler behavior
and machine load. --tolerance-for overrides the tolerance for every
benchmark whose name starts with PREFIX (longest matching prefix wins),
e.g.:

  tools/bench_compare.py fresh/ bench/baselines \
      --tolerance-for BM_ReliableLink=40

Benchmarks present on only one side are reported but never fail the
comparison, so adding or retiring benchmarks does not break the gate.
Meant for same-machine runs (tools/run_bench.sh before/after a change);
cross-machine numbers are not comparable.
"""

import argparse
import json
import os
import statistics
import sys


def load_samples(path):
    """benchmark name -> (unit, rates), one rate per iteration entry (one
    per --benchmark_repetitions repetition); higher is always better. The
    unit encodes the metric kind (items/s, or inverse cpu time in a
    specific time unit) so mismatched kinds are never compared
    numerically. The aggregate entries Google Benchmark adds are
    skipped."""
    with open(path) as f:
        data = json.load(f)
    samples = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if "items_per_second" in b:
            sample = (float(b["items_per_second"]), "items/s")
        elif b.get("cpu_time"):
            unit = "1/cpu_time[%s]" % b.get("time_unit", "ns")
            sample = (1.0 / float(b["cpu_time"]), unit)
        else:
            continue
        samples.setdefault(b["name"], []).append(sample)
    return {name: (runs[0][1], [r for r, _ in runs]) for name, runs in samples.items()}


def load_rates(path):
    """benchmark name -> (rate, unit, runs): the median of the name's
    `runs` samples (load_samples)."""
    return {name: (statistics.median(rates), unit, len(rates))
            for name, (unit, rates) in load_samples(path).items()}


def cv_percent(rates):
    """Coefficient of variation of one name's runs, in percent."""
    mean = statistics.fmean(rates)
    if len(rates) < 2 or mean <= 0:
        return 0.0
    return statistics.stdev(rates) / mean * 100.0


# Noisy families (retransmission rounds vary with the simulated loss
# draw) always get a wider gate even when no --tolerance-for flag names
# them. CLI overrides take precedence (they are matched first on ties).
DEFAULT_FAMILY_TOLERANCES = [
    ("BM_ReliableLink", 25.0),
    # Single timed iteration per leg (registration + RSS accounting), so
    # run-to-run variance is higher than the steady-state loops.
    ("BM_RegistrationScale", 30.0),
]


def tolerance_of(name, default, overrides):
    """Tolerance for one benchmark: the longest matching --tolerance-for
    prefix wins, falling back to the global --tolerance."""
    best_len = -1
    best = default
    for prefix, pct in overrides:
        if name.startswith(prefix) and len(prefix) > best_len:
            best_len = len(prefix)
            best = pct
    return best


def compare_file(fresh_path, base_path, tolerance, overrides=()):
    fresh = load_samples(fresh_path)
    base = load_samples(base_path)
    failures = []
    for name in sorted(base):
        if name not in fresh:
            print(f"  only in baseline (skipped): {name}")
            continue
        unit, new_runs = fresh[name]
        old_unit, old_runs = base[name]
        new = statistics.median(new_runs)
        old = statistics.median(old_runs)
        if unit != old_unit:
            print(f"  metric changed ({old_unit} -> {unit}); skipped: {name}")
            continue
        if old <= 0:
            continue
        allowed = tolerance_of(name, tolerance, overrides)
        delta = (new - old) / old * 100.0
        old_cv, new_cv = cv_percent(old_runs), cv_percent(new_runs)
        marker = "  noisy" if max(old_cv, new_cv) > allowed else ""
        if delta < -allowed:
            marker += "  <-- REGRESSION"
            failures.append((name, delta))
        print(f"  {name:<40} {old:>14.4g} -> {new:>14.4g} {unit:<10} {delta:+7.1f}%"
              f"  runs {len(old_runs)}->{len(new_runs)}"
              f"  cv {old_cv:.1f}%->{new_cv:.1f}%{marker}")
    for name in sorted(set(fresh) - set(base)):
        print(f"  new benchmark (no baseline): {name}")
    return failures


def matching_pairs(fresh, baseline):
    if os.path.isfile(fresh):
        return [(fresh, baseline)]
    pairs = []
    for entry in sorted(os.listdir(fresh)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        base_path = os.path.join(baseline, entry)
        if os.path.isfile(base_path):
            pairs.append((os.path.join(fresh, entry), base_path))
        else:
            print(f"no baseline for {entry}; skipped")
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="fresh BENCH_*.json file or directory")
    parser.add_argument("baseline", help="baseline BENCH_*.json file or directory")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        help="allowed regression in percent (default 10)")
    parser.add_argument("--tolerance-for", action="append", default=[],
                        metavar="PREFIX=PCT",
                        help="per-family tolerance override, e.g. BM_ReliableLink=40; "
                             "applies to every benchmark whose name starts with PREFIX "
                             "(repeatable; longest matching prefix wins)")
    args = parser.parse_args()

    overrides = []
    for spec in args.tolerance_for:
        prefix, sep, pct = spec.partition("=")
        if not sep or not prefix:
            parser.error(f"--tolerance-for expects PREFIX=PCT, got {spec!r}")
        try:
            overrides.append((prefix, float(pct)))
        except ValueError:
            parser.error(f"--tolerance-for expects a numeric PCT, got {spec!r}")
    overrides += DEFAULT_FAMILY_TOLERANCES  # CLI entries win ties (matched first)

    if os.path.isfile(args.fresh) != os.path.isfile(args.baseline):
        parser.error("fresh and baseline must both be files or both be directories")

    pairs = matching_pairs(args.fresh, args.baseline)
    if not pairs:
        print("error: nothing to compare", file=sys.stderr)
        return 2

    failures = []
    for fresh_path, base_path in pairs:
        print(f"{os.path.basename(fresh_path)}:")
        failures += compare_file(fresh_path, base_path, args.tolerance, overrides)

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond tolerance:",
              file=sys.stderr)
        for name, delta in failures:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        return 1
    print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
