#!/usr/bin/env python3
"""Self-test of the benchmark in its tiny-N mode (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench with --tiny and
checks that:
  * the end-to-end run (--trace 0) and the traced run (--trace 1) pass their
    correctness gate and emit every metric BENCHMARK.json names for that
    mode, with the declared unit, and with a clock in the detail line;
  * two runs with one seed end in the same final-state hash;
  * the force check rejects a deliberately perturbed acceleration: the run
    exits non-zero, reports correct=false and counts every step failed.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLOCKS = {"wall", "count", "ratio"}
SEED = 7


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError("%s: no result (rc %d)\n%s" % (" ".join(cmd), p.returncode, p.stderr))
    return p.returncode, json.loads(lines[-1]), json.loads(lines[-2])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    errors = []

    def expect(cond, msg):
        if not cond:
            errors.append(msg)
            print("FAIL " + msg)

    for wl in [w["name"] for w in spec["workloads"]]:
        hashes = []
        for trace in (0, 1, 0):
            rc, res, det = run(wl, trace)
            tag = "%s trace=%d" % (wl, trace)
            expect(rc == 0 and res["correct"], "%s: correctness gate failed: %s" % (tag, det["check"]["why"]))
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, tag + ": result keys")
            expect(res["attempted"] >= 1 and res["failed"] == 0, tag + ": attempted/failed")
            for m in wanted[trace]:
                got = res["metrics"].get(m["name"])
                expect(got is not None, "%s: metric %s missing" % (tag, m["name"]))
                if got is None:
                    continue
                expect(got["unit"] == m["unit"], "%s: %s unit %s != %s" % (tag, m["name"], got["unit"], m["unit"]))
                expect(isinstance(got["value"], (int, float)), "%s: %s value not a number" % (tag, m["name"]))
                d = det["metrics"].get(m["name"], {})
                expect(d.get("clock") in CLOCKS, "%s: %s has no clock" % (tag, m["name"]))
            extra = set(res["metrics"]) - {m["name"] for m in wanted[trace]}
            expect(not extra, "%s: undeclared metrics %s" % (tag, sorted(extra)))
            if trace == 0:
                hashes.append(det["state_hash"])
        expect(len(set(hashes)) == 1, "%s: final-state hash differs between two runs of seed %d: %s"
               % (wl, SEED, hashes))

        rc, res, det = run(wl, 0, "--perturb-check")
        expect(rc != 0 and not res["correct"], wl + ": perturbed acceleration was not rejected")
        expect(res["failed"] == res["attempted"], wl + ": perturbed run does not count its steps failed")
        print("ok   %s" % wl if not errors else "...  %s" % wl, flush=True)

    if errors:
        print("%d self-test failure(s)" % len(errors))
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
