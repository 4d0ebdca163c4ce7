"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design-sweep --seed 1 \\
        --seconds 25 --trace 0

``--workload all`` runs every workload in turn.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every request passed every
correctness check.

This script imports nothing from the program.  It starts fresh worker
processes (``perfbench/worker.py``) with BLAS pinned to one thread:
several that only set up, and one that sets up and then runs the timed
rounds.  ``setup_s`` is the median, over all of them, of the time from
process start to the worker's ``READY`` line, each scaled to the
reference machine by the speed factor the worker measures right after.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up-only processes started before and after the measuring one.
#: Spreading the set-up samples over the whole run, instead of taking
#: them back to back, averages out the machine's drift over seconds.
SETUP_ONLY_BEFORE = 2
SETUP_ONLY_AFTER = 2

#: Hard limit for the whole run [s]; workers still running are killed.
RUN_TIMEOUT_S = 170.0

ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> "dict[str, str]":
    env = dict(os.environ)
    for name in ONE_THREAD:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: "list[str]",
               deadline: float) -> "tuple[float, list[str], int]":
    """Run one worker; return (set-up seconds, output lines, exit code).

    The set-up time is scaled by the speed factor the worker prints on
    its ``SPEED`` line, to reference-machine seconds.  The worker is
    killed if it is still running at ``deadline`` (a ``time.monotonic``
    value).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                             proc.kill)
    killer.start()
    setup = speed = float("nan")
    lines: "list[str]" = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.strip() == "READY" and setup != setup:
                setup = time.perf_counter() - start
            elif line.startswith("SPEED ") and speed != speed:
                speed = float(line.split()[1])
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if (setup != setup or speed != speed) and code == 0:
        code = 1  # exited without READY or SPEED
    return setup * speed, lines, code


def run_workload(workload: str, seed: int, seconds: int,
                 trace: int) -> "dict | None":
    """Run one workload; return its result object, or None on failure."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed)]

    def setup_only(count: int) -> bool:
        for _ in range(count):
            setup, lines, code = run_worker(common + ["--setup-only"],
                                            deadline)
            if code != 0:
                print("\n".join(lines))
                print(f"perfbench: set-up process failed (exit {code})",
                      file=sys.stderr)
                return False
            setups.append(setup)
        return True

    setups: "list[float]" = []
    if not setup_only(SETUP_ONLY_BEFORE):
        return None
    setup, lines, code = run_worker(
        common + ["--seconds", str(seconds), "--trace", str(trace)],
        deadline)
    setups.append(setup)
    if not setup_only(SETUP_ONLY_AFTER):
        return None

    results = [line for line in lines if line.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if not results:
        print(f"perfbench: worker produced no result (exit {code})",
              file=sys.stderr)
        return None
    result = json.loads(results[-1][len("RESULT "):])
    if code != 0:
        result["correct"] = False
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
        print("setup_s samples = "
              + ", ".join(f"{s:.4f}" for s in setups))
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="perfbench runner")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in turn and "
                             "prefixes each metric with its workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
