#!/usr/bin/env python3
"""Repository benchmark: build the harness and reconf_serve, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace all]

--seconds defaults to run_seconds of BENCHMARK.json, the length every bound
was set on. Run from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line of
stdout is the harness's JSON result; the exit status is non-zero when the
build fails or any verdict, replay or workload-intent check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_tree_ok():
    return all(os.path.exists(os.path.join(ROOT, p)) for p in ("CMakeLists.txt", "src", "tools"))


def build(build_dir):
    """Configure once, then (re)build only the two targets the benchmark runs."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_harness",
                    "reconf_serve", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def source_stamp():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_one(build_dir, workload, seed, seconds, trace, commit):
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_harness"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--server", os.path.join(build_dir, "reconf", "reconf_serve"),
           "--out-dir", out_dir, "--commit", commit]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="all", choices=["0", "1", "all"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not source_tree_ok():
        log("perfbench: no reconf source tree next to perfbench/; nothing to build")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 2

    commit = source_stamp()
    workloads = names if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace == "all" else [int(args.trace)]
    failed = [(w, t) for w in workloads for t in traces
              if run_one(build_dir, w, args.seed, seconds, t, commit) != 0]
    for w, t in failed:
        log(f"perfbench: {w} --trace {t} FAILED")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
