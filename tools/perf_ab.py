#!/usr/bin/env python3
"""Same-runner A/B of the repository benchmark: a parent checkout against a change.

    python3 tools/perf_ab.py PARENT_CHECKOUT CHANGE_CHECKOUT

For each workload of BENCHMARK.json it runs K alternating pairs of
`perfbench/run.py --workload W --seed 1 --seconds S --trace 0`, one run in
each checkout; each checkout builds its own .bench_build/, and the side that
runs first alternates from pair to pair. It fails (exit 1) when a change-side
run exits non-zero, or when, for any workload and end_to_end metric, the
change's median is worse than the parent's median by more than the metric's
bound. Metric names, directions (`better`) and bounds are read from the
change's BENCHMARK.json. The stdout and stderr of every run and the result
table are kept in perf_ab_out/ under the current directory.
"""

import json
import os
import statistics
import subprocess
import sys

K = 5  # pairs per workload
SECONDS = 5  # length of each run's fixed-rate phase
OUT_DIR = "perf_ab_out"
TAIL_LINES = 40


def run(checkout, workload, tag):
    """One perfbench run; returns its metrics, or None when it exits non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS), "--trace", "0"]
    # run.py builds under $CARGO_TARGET_DIR when it is set, which would give
    # both checkouts one build directory; without it each builds its own.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        with open(os.path.join(OUT_DIR, f"{tag}.{stream}"), "w") as fh:
            fh.write(text)
    if proc.returncode != 0:
        print(f"{tag}: exit {proc.returncode}; last {TAIL_LINES} lines of stdout and stderr:")
        for line in (proc.stdout.splitlines()[-TAIL_LINES:]
                     + proc.stderr.splitlines()[-TAIL_LINES:]):
            print("  | " + line)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, parent, change):
    """How much worse the change is, as a fraction of the parent (<= 0: not worse)."""
    delta = change - parent if metric["better"] == "lower" else parent - change
    if parent == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(parent)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (os.path.abspath(p) for p in sys.argv[1:])
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    failed = False
    rows = []
    exited = {"parent": [], "change": []}  # tags of runs that exited non-zero
    for workload in (w["name"] for w in bench["workloads"]):
        samples = {"parent": [], "change": []}
        for pair in range(K):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                tag = f"{workload}-pair{pair}-{side}"
                metrics = run(checkout, workload, tag)
                print(f"{tag}: " + ("FAILED" if metrics is None else "ok"), flush=True)
                if metrics is None:
                    exited[side].append(tag)
                else:
                    samples[side].append(metrics)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [m[name] for m in runs if name in m]
                      for side, runs in samples.items()}
            if not values["parent"] or not values["change"]:
                rows.append(f"{workload:<18} {name:<14} {'no data':>12}")
                failed |= not values["change"]
                continue
            p = statistics.median(values["parent"])
            c = statistics.median(values["change"])
            worse = worse_by(metric, p, c)
            verdict = "FAIL" if worse > metric["bound"] else "ok"
            failed |= verdict == "FAIL"
            rows.append(f"{workload:<18} {name:<14} {p:>12.6g} {c:>12.6g} "
                        f"{worse:>+8.1%} {metric['bound']:>6.0%}  {verdict}")

    header = (f"{'workload':<18} {'metric':<14} {'parent':>12} {'change':>12} "
              f"{'worse':>8} {'bound':>6}  medians of {K} pairs, --seconds {SECONDS}")
    failed |= bool(exited["change"])
    notes = [f"{side} runs that exited non-zero: {', '.join(tags)}"
             for side, tags in exited.items() if tags]
    table = "\n".join([header] + rows + notes + ["FAIL" if failed else "PASS"]) + "\n"
    with open(os.path.join(OUT_DIR, "table.txt"), "w") as fh:
        fh.write(table)
    print(table, end="")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
