"""Runs one workload in one process, pinned to one BLAS/OpenMP thread.

Prints ``ready`` once set-up (imports and input generation) is done, then
runs passes until ``--seconds`` have gone by and prints one JSON line with
the pass times, operation counts, check results and peak memory.  With
``--trace 1`` every input runs twice, once traced and once untraced, in
alternating order; the per-layer metrics come from the traced passes and
the tracing overhead from the paired differences.  ``run.py`` starts this
process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_PASSES = 400


class Ops:
    """Counts the operations of a run and the ones that raised ``errors``."""

    def __init__(self, errors):
        self.errors = errors
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except self.errors as exc:
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def setup(name, seed):
    """The workload object, its error classes and the inputs of every pass."""
    if name == "shipped_configs":
        # the start-up every CLI process pays: interpreter, numpy, scipy, package
        import fracturelab.cli  # noqa: F401
        from configs import ShippedConfigs
        return ShippedConfigs(ROOT, seed), (), [{}] * MAX_PASSES
    import numpy as np
    from fracturelab.errors import FractureLabError
    from workloads import WORKLOADS
    workload = WORKLOADS[name]()
    rng = np.random.default_rng(seed)
    inputs, seen = [], set()
    while len(inputs) < MAX_PASSES:
        inp = workload.draw(rng)
        key = json.dumps(inp, sort_keys=True)
        if key not in seen:   # no pass repeats an earlier one
            seen.add(key)
            inputs.append(inp)
    return workload, (FractureLabError,), inputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload, errors, inputs = setup(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    in_process = args.workload != "shipped_configs"
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    ops = Ops(errors)
    walls, traced_walls, cands, failures = [], [], [], []
    start = time.perf_counter()
    for k, inp in enumerate(inputs):
        if k >= 1 and time.perf_counter() - start >= args.seconds:
            break
        modes = (False,) if tracer is None else ((False, True) if k % 2 else (True, False))
        for traced in modes:
            if traced and in_process:
                tracer.install()
            t0 = time.perf_counter()
            if in_process:
                raw = workload.run(inp, ops)
            else:
                raw = workload.run(inp, ops, tracer if traced else None)
            wall = time.perf_counter() - t0
            if traced and in_process:
                tracer.uninstall()
            if traced:
                traced_walls.append(wall)
            else:
                walls.append(wall)
                cands.append(workload.candidates(inp))
            failures += workload.check(workload.record(inp, raw))

    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"walls": walls, "traced_walls": traced_walls, "candidates": cands,
              "attempted": ops.attempted, "failed": ops.failed,
              "correct": not failures, "peak_rss_kb": peak_kb}
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced_walls))
        layers["trace.pass_wall_s"] = statistics.median(traced_walls)
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, walls))
        result["layers"] = layers
        os.makedirs(os.path.join(ROOT, "bench", "out"), exist_ok=True)
        path = os.path.join(ROOT, "bench", "out", f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(tracer.dump(), f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
