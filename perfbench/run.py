#!/usr/bin/env python3
"""Build and run the pfact benchmark for one workload.

    python3 perfbench/run.py --workload reduce-fresh --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into .bench_build/,
then runs the pfbench driver in its own process group with its sockets in a
fresh directory under .bench_build/runs/. When the driver exits (or is
killed at the time limit) every process left in its group is a leak, and so
is any socket file left in that directory: either fails the run. The driver's
"pfbench:" lines are forwarded, and the last line printed is the result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

The metric names and units are checked against BENCHMARK.json: end_to_end
with --trace 0, per_layer with --trace 1. Any failure exits non-zero without
printing a result.

Extra flags: --smoke (small fixed sizes, for the tests), --plant-wrong
(inverts the checker's first verdict: the run must fail), --digest-only
(print the input-stream digest and exit).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
WORKLOADS = ("reduce-fresh", "reduce-repeat", "factor-dense")
# The driver must end within this many seconds of being started.
DRIVER_LIMIT_S = 150
# How long descendants may take to finish exiting after the driver returns.
EXIT_GRACE_S = 3.0


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "pfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            fail("cmake not found")
        if done.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            sys.exit(2)
    return BUILD / "pfbench"


def group_members(pgid):
    """Live (non-zombie) processes whose process group is `pgid`."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 5
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--plant-wrong", action="store_true")
    ap.add_argument("--digest-only", action="store_true")
    args = ap.parse_args()

    binary = build()
    run_dir = RUNS / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_path = run_dir / "stdout.txt"
    sock_dir = run_dir / "sock"
    sock_dir.mkdir()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sock-dir", str(sock_dir.relative_to(ROOT))]
    cmd += ["--smoke"] * args.smoke + ["--plant-wrong"] * args.plant_wrong
    cmd += ["--digest-only"] * args.digest_only

    # stdout goes to a file, not a pipe: a leaked descendant holding the
    # pipe open must not be able to stall this script.
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=DRIVER_LIMIT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            kill_group(proc.pid)
            code = proc.wait()
            timed_out = True

    deadline = time.monotonic() + EXIT_GRACE_S
    survivors = group_members(proc.pid)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = group_members(proc.pid)
    if survivors:
        kill_group(proc.pid)
    leftovers = sorted(p.name for p in sock_dir.iterdir())
    lines = out_path.read_text().splitlines()
    shutil.rmtree(run_dir, ignore_errors=True)

    if timed_out:
        fail(f"driver exceeded {DRIVER_LIMIT_S} s and was killed")
    if survivors:
        fail(f"processes survived the run: {survivors}")
    if leftovers:
        fail(f"socket files survived the run: {leftovers}")
    if code != 0:
        fail(f"driver exited with code {code} "
             f"(workload={args.workload} seed={args.seed})")
    for line in lines[:-1]:
        print(line)
    if args.digest_only:
        return
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing={missing} "
             f"extra={extra} wrong_unit={wrong_unit}")
    bad = [n for n, m in result["metrics"].items()
           if not math.isfinite(m["value"])]
    if bad or not result["correct"] or result["attempted"] < 1:
        fail(f"invalid result (non-finite: {bad}): {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
