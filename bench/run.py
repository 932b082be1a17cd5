"""fracturelab benchmark: one run of one workload, one JSON result line.

    python3 bench/run.py --workload release_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run sets up the workload several times
in fresh processes (the median is ``setup_s``), then runs passes for
``--seconds`` in one worker process pinned to one BLAS/OpenMP thread.  The
last line of standard output is the result; with ``--trace 0`` it carries
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("release_sweep", "initiation", "dual_p15", "shipped_configs")
SETUP_PROBE_S = 2.5    # set up at least 5 times and for this long, at most 25 times
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline, extra=()):
    """Start a worker, time it until it is ready, and collect its output."""
    cmd = [sys.executable, os.path.join(ROOT, "bench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return setup, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fracturelab", "__init__.py")):
        print(f"error: no fracturelab sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        probe_start = time.monotonic()
        while len(setups) < 5 or (len(setups) < 25
                                  and time.monotonic() - probe_start < SETUP_PROBE_S):
            setups.append(run_worker(args, deadline, ["--setup-only"])[0])
        setup, out = run_worker(args, deadline, ["--seconds", str(args.seconds),
                                                 "--trace", str(args.trace)])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    res = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        walls = res["walls"]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
            "cracks_per_s": {"value": sum(res["candidates"]) / sum(walls), "unit": "1/s"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
