"""hqinet benchmark: one workload run, printed as metric lines plus a JSON line.

    python3 perfbench/run.py --workload generate|train|infer --seed N \
        --seconds S --trace 0|1 [--size toy]

Run from the repository root. Every process this starts is a fresh
``perfbench/workloads.py`` with the BLAS thread count pinned to one:
three set-up processes (``setup_s`` is the median of their wall times),
then one measuring process. ``--trace 1`` measures twice, untraced and
traced, and reports the per-layer metrics of the traced process plus the
overhead of tracing. Metric names and units come from BENCHMARK.json.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("generate", "train", "infer")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on 2 vCPUs a second one sped a training step up by about
# 4% at twice the CPU time, and ties every matmul to the slower of two
# shared vCPUs. See README.md.
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode, args, work, deadline, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--dir", work,
           "--size", args.size, "--seconds", str(args.seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the time limit") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
    return wall


def read_result(work):
    with open(os.path.join(work, "result.json")) as f:
        return json.load(f)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # do not let git search the directories above the checkout
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(args, spec, workdir):
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    for i in range(1 if args.trace else SETUP_REPEATS):
        work = os.path.join(workdir, f"work{i}")
        os.makedirs(work)
        setups.append(run_child("setup", args, work, deadline))
    traced_dir = os.path.join(workdir, "traced")
    if args.trace:
        shutil.copytree(work, traced_dir)
    run_child("measure", args, work, deadline)
    plain = read_result(work)
    attempted, failed = plain["attempted"], plain["failed"]
    if not args.trace:
        values = {"setup_s": statistics.median(setups),
                  "items_per_s": plain["items_per_s"],
                  "peak_rss_mib": plain["peak_rss_mib"]}
        return plain, attempted, failed, values, spec["end_to_end"]

    run_child("measure", args, traced_dir, deadline, trace=1)
    traced = read_result(traced_dir)
    attempted += traced["attempted"]
    failed += traced["failed"]
    if not traced["restored"]:
        failed = attempted
    if args.workload == "train":
        with open(plain["loss_log"], "rb") as a, open(traced["loss_log"], "rb") as b:
            if a.read() != b.read():
                failed = attempted
    values = dict(traced["per_layer"])
    values["trace.overhead_pct"] = 100.0 * (plain["items_per_s"] / traced["items_per_s"] - 1.0)
    return traced, attempted, failed, values, spec["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "toy"), default="bench",
                        help="toy: tiny inputs for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hqinet", "__init__.py")):
        print(f"error: no hqinet sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result, attempted, failed, values, declared = bench(args, spec, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still has its directory there

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    env = dict(result["env"], commit=git_commit(), workload=args.workload,
               seed=args.seed, seconds=args.seconds, trace=args.trace,
               calls=result["calls"])
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"{'operations attempted':<44} {attempted:>16d}")
    print(f"{'operations failed':<44} {failed:>16d}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
