#!/usr/bin/env python3
"""Compares two sets of benchmark results, one row per workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py --spread RESULTS.jsonl

A result set is the file that `run.py ... --out FILE` appends to: one
JSON line per run, holding the workload, seed, `nproc`, git revision,
metrics and determinism-witness counters.

Two sets: each end-to-end metric's median in NEW is compared with its
median in BASE against the bound BENCHMARK.json fixes for it; a change
beyond the bound in the metric's worse direction is a regression. The
witness counters of every seed both sets ran must be identical. Exits 1
on a regression or a counter difference.

`--spread`: for one set, each metric's interquartile range as a share
of its median (as `statistics.quantiles(n=4)` gives it), next to a third
of its bound, the level below which the benchmark counts as steady.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def by_workload(runs, trace=0):
    out = {}
    for r in runs:
        if r.get("trace", 0) == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def describe(runs):
    revs = sorted({r.get("rev", "unknown") for r in runs})
    nprocs = sorted({r.get("nproc", 0) for r in runs})
    return f"rev {','.join(revs)}, nproc {','.join(map(str, nprocs))}, {len(runs)} runs"


def witness_diffs(base, new):
    """Counters that differ between runs of the same workload and seed."""
    seen = {(r["workload"], r["seed"]): r.get("witness", {}) for r in base}
    shared, diffs = 0, []
    for r in new:
        key = (r["workload"], r["seed"])
        if key not in seen:
            continue
        shared += 1
        a, b = seen[key], r.get("witness", {})
        for k in sorted(set(a) | set(b)):
            if a.get(k) != b.get(k):
                diffs.append(f"seed {key[1]}: {k} {a.get(k)} -> {b.get(k)}")
    return shared, diffs


def compare(base_path, new_path):
    spec = load_spec()
    base_runs, new_runs = load(base_path), load(new_path)
    print(f"base: {describe(base_runs)}")
    print(f"new:  {describe(new_runs)}")
    base, new = by_workload(base_runs), by_workload(new_runs)
    bad = False
    for workload in sorted(set(base) | set(new)):
        a_runs, b_runs = base.get(workload, []), new.get(workload, [])
        worse, better, details = [], [], []
        for name, m in spec.items():
            a, b = values(a_runs, name), values(b_runs, name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            regress = change if m["better"] == "lower" else -change
            verdict = "ok"
            if regress > m["bound"]:
                verdict, bad = "WORSE", True
                worse.append(name)
            elif -regress > m["bound"]:
                verdict = "better"
                better.append(name)
            details.append(
                f"    {name:<24} {ma:>14.6g} {mb:>14.6g} {change:>+8.1%}"
                f"  bound {m['bound']:.0%} {verdict}"
            )
        shared, diffs = witness_diffs(
            [r for r in base_runs if r["workload"] == workload],
            [r for r in new_runs if r["workload"] == workload],
        )
        bad = bad or bool(diffs)
        counters = (
            f"counters identical on {shared} shared seeds" if not diffs
            else f"{len(diffs)} counter differences"
        )
        print(
            f"{workload:<18} {len(a_runs)}/{len(b_runs)} runs, "
            f"{len(worse)} worse {worse}, {len(better)} better {better}, {counters}"
        )
        for d in details:
            print(d)
        for d in diffs[:20]:
            print(f"    counter: {d}")
    return 1 if bad else 0


def spread(path):
    spec = load_spec()
    runs = load(path)
    print(describe(runs))
    for workload, rs in sorted(by_workload(runs).items()):
        print(f"{workload} ({len(rs)} runs)")
        for name, m in spec.items():
            v = values(rs, name)
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else 0.0
            steady = "steady" if share <= m["bound"] / 3 else "NOISY"
            print(
                f"    {name:<24} median {med:>14.6g}  spread {share:>6.1%}"
                f"  bound/3 {m['bound'] / 3:>6.1%}  {steady}"
            )
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--spread":
        return spread(argv[1])
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
