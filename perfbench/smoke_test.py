#!/usr/bin/env python3
"""Smoke test of the benchmark on a tiny fabric, through every workload.

Run from the repository root:

    python3 perfbench/smoke_test.py

For each workload it runs the benchmark untraced twice and traced once,
with the same seed, and checks that:
  * the printed metric names and units match BENCHMARK.json (end_to_end
    untraced, per_layer traced), every value is a finite number, and the
    end-to-end values are non-zero;
  * every correctness check passed and no operation failed;
  * the two untraced runs print the same decision digest and reject ratio;
  * the traced run reproduces the untraced run's decision digest.
Exits 0 when every check holds.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--fabric", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError("%s trace=%d printed no result (exit %d):\n%s" %
                           (workload, trace, out.returncode, out.stderr))
    return (json.loads(lines[-2])["provenance"], json.loads(lines[-1]),
            out.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)
        print(("ok   " if ok else "FAIL ") + what)

    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {}
        for key, trace in (("a", 0), ("b", 0), ("traced", 1)):
            prov, result, code = run(workload, trace)
            runs[key] = prov
            metrics = result["metrics"]
            tag = "%s trace=%d" % (workload, trace)
            check(code == 0, tag + ": exit code 0")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  tag + ": correct, %d failed of %d attempted" %
                  (result["failed"], result["attempted"]))
            check({k: v["unit"] for k, v in metrics.items()} ==
                  expected[trace], tag + ": metric names and units")
            check(all(isinstance(v["value"], (int, float)) and
                      math.isfinite(v["value"]) for v in metrics.values()),
                  tag + ": finite values")
            if trace == 0:
                check(all(v["value"] != 0 for v in metrics.values()),
                      tag + ": non-zero end-to-end values")
        check(runs["a"]["digest"] == runs["b"]["digest"] and
              runs["a"]["rejected"] == runs["b"]["rejected"],
              workload + ": same seed, same digest and rejections")
        check(runs["traced"]["digest_traced"] == runs["a"]["digest"],
              workload + ": traced run reproduces the untraced digest")

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
