#!/usr/bin/env python3
"""Smoke-test the wall-clock benchmark at tiny scale.

    python3 wallbench/selftest.py

Run from the repository root.  For every workload in BENCHMARK.json it
runs the benchmark's own command at self-test scale, untraced and traced,
and checks that the run is correct and that every declared metric is
present, finite and tagged with its declared unit.  Then, for each of the
three segments, it corrupts one retained result and checks that the
correctness gate trips.  Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, trace, extra=()):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0.5",
                             "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit("FAIL %s trace=%d %s: exit %d" % (workload, trace, list(extra),
                                                   done.returncode))
    return json.loads(done.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(spec, w["name"], trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = r["metrics"]
            missing = sorted(set(want) - set(got))
            bad = sorted(k for k, v in got.items()
                         if not v.get("unit") or want.get(k) != v["unit"]
                         or not isinstance(v.get("value"), (int, float))
                         or not math.isfinite(v["value"]))
            if missing or bad or set(got) != set(want):
                sys.exit("FAIL %s trace=%d: missing %s, bad %s" % (w["name"], trace,
                                                                  missing, bad))
            if not (r["correct"] and r["attempted"] >= 1 and r["failed"] == 0):
                sys.exit("FAIL %s trace=%d: run not correct: %s" % (
                    w["name"], trace, {k: r[k] for k in ("correct", "attempted", "failed")}))
            print("ok   %-16s trace=%d  %d metrics, %d ops" % (w["name"], trace, len(got),
                                                               r["attempted"]))
    for segment in ("spmv", "products", "serve"):
        r = run(spec, spec["workloads"][0]["name"], 0, ("--corrupt", segment))
        if r["correct"] or r["failed"] < 1:
            sys.exit("FAIL gate did not trip on a corrupted %s result" % segment)
        print("ok   gate trips on a corrupted %s result (%d failed)" % (segment, r["failed"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
