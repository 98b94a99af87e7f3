#!/usr/bin/env python3
r"""Build and run the wall-clock benchmark.

    python3 wallbench/run.py --mps-threads 1 --workers 2 --slo-ms 100 \
        --workload spmv_iterative --seed 1 --seconds 10 --trace 0

Run from the repository root.  The command in BENCHMARK.json fixes
--mps-threads, --workers and --slo-ms; they have no defaults here.

Builds the `wallbench` binary (Release) into .bench_build/wallbench from
the sources in src/ and wallbench/src/, runs one workload, and passes its
output through.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, holding the end-to-end
metrics of BENCHMARK.json with --trace 0 and its per-layer metrics with
--trace 1.  Build logs go to standard error.  Exits non-zero, without a result line, when the library
sources are missing, the build fails, the run fails, or the metrics do not
match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "wallbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to " + HERE)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "wallbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "wallbench")


def declared(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mps-threads", type=int, required=True,
                    help="vgpu host pool size (MPS_THREADS)")
    ap.add_argument("--workers", type=int, required=True, help="serve::Engine workers")
    ap.add_argument("--slo-ms", type=float, required=True,
                    help="latency limit behind serve_slo_frac")
    ap.add_argument("--tiny", action="store_true", help="self-test scale")
    ap.add_argument("--corrupt", default="", help="self-test: corrupt one result")
    a = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--workers", str(a.workers), "--slo-ms", repr(a.slo_ms),
           "--out-dir", os.path.join(REPO, ".bench_build", "wallbench-out")]
    if a.tiny:
        cmd.append("--tiny")
    if a.corrupt:
        cmd += ["--corrupt", a.corrupt]
    env = dict(os.environ, MPS_THREADS=str(a.mps_threads))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    log = "\n".join(lines[:-1]) + "\n"
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("run exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    want = declared(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write(log)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in got if k in want and got[k] != want[k])))
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        sys.stdout.write(log)
        fail("non-finite metrics: %s" % bad)
    sys.stdout.write(log)
    print(lines[-1])


if __name__ == "__main__":
    main()
