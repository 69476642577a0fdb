#!/usr/bin/env python3
"""Build and run the host-clock benchmark of rigorbench.

Run from the root of a checkout:

    python3 hostbench/run.py --workload measure|record|query|all \
        --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --selftest

The first call configures and builds hostbench/ (which pulls in ../src
and ../tools) as a Release build under .bench_build/hostbench; later
calls only rebuild what changed. The benchmark's report goes to stdout
and its last line is the JSON result; build output goes to stderr.
--workload all runs the three workloads one after another.

--selftest runs every workload at a tiny size, untraced and traced, and
checks that every metric BENCHMARK.json names is printed with its unit,
that no operation failed, and that a deliberately wrong expected output
is counted as a failure.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "hostbench"
BINARY = BUILD / "hostbench"
WORKLOADS = ("measure", "record", "query")
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no rigorbench sources next to {HERE.name}/ (src/ missing)")
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        run_build(cmd)
    run_build(["cmake", "--build", str(BUILD), "-j", "4",
               "--target", "hostbench", "rigorbench"])


def run_build(cmd):
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(cmd))
    if r.returncode != 0:
        fail("build failed: " + " ".join(cmd))


def commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def bench(args, capture=False):
    cmd = [str(BINARY), "--commit", commit()] + args
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")


def result(r):
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]) if r.returncode == 0 and lines else None


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in WORKLOADS:
        base = ["--workload", wl, "--seed", "1", "--seconds", "0", "--tiny"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            res = result(bench(base + ["--trace", trace], capture=True))
            tag = f"{wl} --trace {trace}"
            if res is None:
                problems.append(f"{tag}: no result")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(got.items())} != "
                                f"{sorted(want.items())}")
            if res["attempted"] < 1 or res["failed"] != 0 \
                    or not res["correct"]:
                problems.append(f"{tag}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
        res = result(bench(base + ["--trace", "0", "--corrupt-expected"],
                           capture=True))
        if res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{wl}: a wrong expected output was not "
                            "counted as a failure")
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    build()
    if a.selftest:
        return selftest()
    rc = 0
    for wl in WORKLOADS if a.workload == "all" else (a.workload,):
        r = bench(["--workload", wl, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", a.trace])
        rc = rc or r.returncode
    return rc


if __name__ == "__main__":
    sys.exit(main())
