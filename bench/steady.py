"""Steadiness of the benchmark: repeat runs and report the spread per metric.

    python3 bench/steady.py [--first-seed 1] [--write]

Runs every workload 10 times, with seeds from ``--first-seed`` on and the
workloads interleaved, and prints for each end-to-end metric the median,
the quartiles and the spread (distance between the quartiles as a share of
the median).  ``--write`` sets each bound in BENCHMARK.json to three times
the widest spread seen on any workload, rounded up to a hundredth and kept
within [0.05, 0.25]; setup_s gets the largest bound, 0.25.  The raw results
go to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
MAX_BOUND = 0.25
MIN_BOUND = 0.05
RUNS = 10


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    with open(BENCHMARK, encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", action="store_true", help="set the bounds in BENCHMARK.json")
    args = parser.parse_args()

    results = {w: [] for w in names}
    for i in range(RUNS):
        for w in names:
            cmd = bench["command"] + ["--workload", w, "--seed", str(args.first_seed + i),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(res)
            print(f"run {i + 1} {w}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    os.makedirs(os.path.join(ROOT, "bench", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "bench", "out", "steady.json"), "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)

    widest = {}
    print(f"\n{'workload':16s} {'metric':13s} {'q1':>10s} {'median':>10s} {'q3':>10s} "
          f"{'spread':>7s}")
    for w, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for m in bench["end_to_end"]:
            q1, med, q3, s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            widest[m["name"]] = max(widest.get(m["name"], 0.0), s)
            print(f"{w:16s} {m['name']:13s} {q1:10.4g} {med:10.4g} {q3:10.4g} {s:7.3f}"
                  f"  (bound {m['bound']})")
        print(f"{w:16s} failed share {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in runs)}")

    if args.write:
        for m in bench["end_to_end"]:
            if m["name"] == "setup_s":
                m["bound"] = MAX_BOUND
            else:
                bound = math.ceil(300 * widest[m["name"]]) / 100
                m["bound"] = min(MAX_BOUND, max(MIN_BOUND, bound))
        with open(BENCHMARK, "w", encoding="utf-8") as f:
            f.write(json.dumps(bench, indent=2) + "\n")
        print("bounds written:", {m["name"]: m["bound"] for m in bench["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
