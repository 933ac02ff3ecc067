#!/usr/bin/env python3
"""Layer diff: which metric moved between two sets of benchmark runs.

    python3 perfbench/diff.py before.txt after.txt

Each file holds the standard output of one or more perfbench/run.py runs
(append them: `run.py ... >> before.txt`).  The tool reads the "detail"
lines, groups them by workload and mode (trace 0 = end-to-end, trace 1 =
per-layer), and prints for every metric each side's median with its
quartiles [q1, q3], the delta of the medians, and a verdict:

  same        exact counts (clock "count") that agree on every run
  better/worse  medians differ by more than either side's quartile spread
              (direction from BENCHMARK.json where the metric is listed)
  changed     as above for a metric without a declared direction
  unresolved  the delta lies inside the spread (the quartile ranges overlap)
  n/a         the layer is bypassed on this workload

It also compares the final-state hashes of runs that share a seed.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_directions():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in spec.get(key, []) if "better" in m}


def load(path):
    """{(workload, trace): {"metrics": {name: [detail entries]}, "hash": {seed: set}}}"""
    runs = defaultdict(lambda: {"metrics": defaultdict(list), "hash": defaultdict(set), "n": 0})
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith('{"perfbench_detail"'):
                continue
            try:
                d = json.loads(line)
            except ValueError:
                continue
            g = runs[(d["perfbench_detail"], bool(d["trace"]))]
            g["n"] += 1
            g["hash"][d["seed"]].add(d["state_hash"])
            for name, m in d["metrics"].items():
                g["metrics"][name].append(m)
    return runs


def summary(entries):
    vals = [e["value"] for e in entries]
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return med, q1, q3, vals


def verdict(name, a, b, directions):
    ea, eb = a[name], b[name]
    if any(e.get("na") for e in ea + eb):
        return "n/a", None
    ma, qa1, qa3, va = summary(ea)
    mb, qb1, qb3, vb = summary(eb)
    delta = mb - ma
    rel = delta / ma if ma else None
    exact = ea[0]["clock"] == "count" and eb[0]["clock"] == "count"
    if exact and set(va) == set(vb) and len(set(va)) == 1:
        return "same", rel
    if delta == 0:
        return "same" if exact else "unresolved", rel
    overlap = qa1 <= qb3 and qb1 <= qa3
    spread = max(qa3 - qa1, qb3 - qb1)
    if overlap or abs(delta) <= spread:
        return "unresolved", rel
    better = directions.get(name)
    if better is None:
        return "changed", rel
    improved = delta < 0 if better == "lower" else delta > 0
    return ("better" if improved else "worse"), rel


def fmt(x):
    return "%.4g" % x


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    directions = load_directions()
    keys = sorted(set(a) & set(b))
    if not keys:
        print("no workload/mode present in both files", file=sys.stderr)
        sys.exit(1)
    for key in sorted(set(a) ^ set(b)):
        print("only in one file: %s trace=%d" % (key[0], key[1]))
    for wl, trace in keys:
        ga, gb = a[(wl, trace)], b[(wl, trace)]
        print("\n== %s  (%s; runs: %d vs %d)" % (wl, "per-layer" if trace else "end-to-end",
                                                 ga["n"], gb["n"]))
        print("%-30s %-8s %-6s %28s %28s %9s  %s" % ("metric", "unit", "clock", "A median [q1, q3]",
                                                   "B median [q1, q3]", "delta", "verdict"))
        for name in ga["metrics"]:
            if name not in gb["metrics"]:
                print("%-30s missing in B" % name)
                continue
            v, rel = verdict(name, ga["metrics"], gb["metrics"], directions)
            e0 = ga["metrics"][name][0]
            if v == "n/a":
                print("%-30s %-8s %-6s %28s %28s %9s  n/a" % (name, e0["unit"], e0["clock"],
                                                            "n/a", "n/a", ""))
                continue
            sa, sb = summary(ga["metrics"][name]), summary(gb["metrics"][name])
            side = lambda s: "%s [%s, %s]" % (fmt(s[0]), fmt(s[1]), fmt(s[2]))
            print("%-30s %-8s %-6s %28s %28s %9s  %s" % (
                name, e0["unit"], e0["clock"], side(sa), side(sb),
                "%+.2f%%" % (100 * rel) if rel is not None else "-", v))
        shared = sorted(set(ga["hash"]) & set(gb["hash"]))
        if shared:
            same = [s for s in shared if ga["hash"][s] == gb["hash"][s] and len(ga["hash"][s]) == 1]
            print("final-state hash: %d/%d shared seeds identical%s" % (
                len(same), len(shared),
                "" if len(same) == len(shared) else
                " (differ: %s)" % ", ".join(str(s) for s in shared if s not in same)))


if __name__ == "__main__":
    main()
