"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs one pass of each workload, drawn from seed 7, requires its checks to accept the genuine
outputs, then corrupts those outputs in ways a wrong program could (a bound
scaled below the measured release, a non-monotone W(l), an initiation one
step late, ...) and requires the check meant for each corruption to reject
it, with a message naming what is wrong.  A check that cannot fail proves
nothing.  Exits 1 if any corruption passes.
"""

from __future__ import annotations

import configparser
import copy
import csv
import io
import os
import sys
from operator import setitem

from configs import circle_length
from run import ROOT, WORKLOADS, worker_env

os.environ.update(worker_env())   # before numpy loads: one BLAS thread
sys.path.insert(0, os.environ["PYTHONPATH"].split(os.pathsep)[0])

SEED = 7


def edit_csv(files, name, edit):
    """Apply ``edit`` to the row dicts of one CSV and re-serialize it."""
    lines = files[name].decode("utf-8").splitlines()
    trailer = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    files[name] = (buf.getvalue() + "\n".join(trailer) + "\n").encode("utf-8")


def _set(rows, j, key, fn):
    rows[j][key] = repr(fn(float(rows[j][key])))


def _shift_h1(rows, by=1):
    h1 = [r["h1"] for r in rows]
    for j, r in enumerate(rows):
        r["h1"] = h1[j - by] if j >= by else "0.0"


def _shift_traj(tr, by=1):
    tr["h1"] = [0.0] * by + tr["h1"][:-by]


def _largest_circle_first(rows):
    ini = configparser.ConfigParser(inline_comment_prefixes=("#",))
    ini.read(os.path.join(ROOT, "configs", "meyers_evolve.ini"))
    r_max = max(float(v) for v in ini.get("family", "radii").split())
    rows[1]["h1"] = repr(circle_length(ini, r_max))


def _bound_below_release(rows):
    rows[0]["bound"] = repr(0.5 * float(rows[0]["release_measured"]))


def _first_crack(tr):
    return next(j for j, v in enumerate(tr["h1"]) if v > 0)


def _rung(rec, ladder, k, fn):
    h1, bound, release = rec[ladder]["rungs"][k]
    rec[ladder]["rungs"][k] = fn(h1, bound, release)


def _swap(values, a, b):
    values[a], values[b] = values[b], values[a]


MUTATIONS = {
    "release_sweep": [
        ("W0 off its closed form 1", "closed form 1", lambda r: r.update(W0=r["W0"] + 1e-6)),
        ("a slit parallel to grad u releases energy", "parallel to grad u",
         lambda r: setitem(r["bulks"], 8, r["bulks"][8] - 1e-6)),
        ("the full cut keeps bulk energy", "keeps bulk", lambda r: setitem(r["bulks"], 0, 1e-3)),
        ("W(l) made non-monotone", "W rises with l", lambda r: _swap(r["W"], 2, 4)),
        ("release rate rising as l shrinks", "does not fall",
         lambda r: setitem(r["rates"], -1, 1.01 * r["rates"][-2])),
    ],
    "initiation": [
        ("brutal initiation shifted by one step", "brutal: first crack",
         lambda r: _shift_traj(r["brutal"])),
        ("brutal jump short of full length", "brutal: first crack",
         lambda r: setitem(r["brutal"]["h1"], _first_crack(r["brutal"]), 0.5)),
        ("progressive initiation shifted by one step", "progressive: first crack at step",
         lambda r: _shift_traj(r["progressive"])),
        ("progressive first crack away from the origin", "from the origin",
         lambda r: r["progressive"].update(first_distance=0.2)),
        ("cracks not nested over time", "not nested",
         lambda r: setitem(r["brutal"]["edges"], -1, frozenset())),
        ("a rescaled-minimality flag fails", "rescaled minimality",
         lambda r: setitem(r["progressive"]["minimality"], 5, False)),
        ("origin exponent off 2/K", "classify:",
         lambda r: setitem(r["classify"]["alphas"], 0, r["classify"]["alphas"][0] + 0.1)),
        ("far probe classified strong", "classify:",
         lambda r: setitem(r["classify"]["classes"], 1, "strong")),
    ],
    "dual_p15": [
        ("uncracked energy off 1/p", "uncracked energy",
         lambda r: r[0].update(E0=r[0]["E0"] + 1e-6)),
        ("a bound scaled below the measured release", "vs measured release",
         lambda r: _rung(r, 1, 2, lambda h, b, rel: (h, 0.9 * rel, rel))),
        ("a negative measured release", "vs measured release",
         lambda r: _rung(r, 0, 0, lambda h, b, rel: (h, b, -1e-6))),
        ("bound exponent not above 1", "exponent above 1",
         lambda r: r[1].update(rungs=[(h, h ** 0.9, 0.0) for h, _, _ in r[1]["rungs"]])),
    ],
    "shipped_configs": [
        ("CSV bytes changed between passes", "differ from the first pass",
         lambda r: setitem(r["poincare_sweep.ini"], "poincare.csv",
                           r["poincare_sweep.ini"]["poincare.csv"] + b"#\n")),
        ("release_curve W off W0 = 1", "release_curve: W0",
         lambda r: edit_csv(r["release_curve.ini"], "curve.csv",
                            lambda rows: _set(rows, 1, "W", lambda v: v + 1e-6))),
        ("weak_evolve initiation shifted by one step", "weak_evolve: first crack",
         lambda r: edit_csv(r["weak_evolve.ini"], "trajectory.csv", _shift_h1)),
        ("meyers_evolve initiation shifted by one step", "meyers_evolve: first crack",
         lambda r: edit_csv(r["meyers_evolve.ini"], "trajectory.csv", _shift_h1)),
        ("meyers_evolve first crack the largest circle", "meyers_evolve: first crack",
         lambda r: edit_csv(r["meyers_evolve.ini"], "trajectory.csv", _largest_circle_first)),
        ("dual_bound bound below the measured release", "dual_bound: bound",
         lambda r: edit_csv(r["dual_bound.ini"], "bound_report.csv", _bound_below_release)),
        ("elastic_p15 bulk off t^1.5 scaling", "elastic_p15: bulk",
         lambda r: edit_csv(r["elastic_p15.ini"], "trajectory.csv",
                            lambda rows: _set(rows, -1, "bulk", lambda v: v * (1 + 1e-6)))),
        ("meyers-verify stiff-radial fit far from 2/3", "stiff-radial fit",
         lambda r: edit_csv(r["meyers_verify.ini"], "meyers.csv",
                            lambda rows: [row.update(alpha_fit="0.9") for row in rows])),
        ("poincare constant not positive", "poincare_sweep: constant",
         lambda r: edit_csv(r["poincare_sweep.ini"], "poincare.csv",
                            lambda rows: rows[0].update(C="-1.0"))),
    ],
}


def main():
    from worker import Ops, setup

    ok = True
    for name in WORKLOADS:
        workload, errors, inputs = setup(name, SEED)
        ops = Ops(errors)
        rec = workload.record(inputs[0], workload.run(inputs[0], ops))
        genuine = workload.check(rec)
        if genuine or ops.failed:
            ok = False
            print(f"{name}: genuine outputs rejected ({ops.failed} failed): {genuine}")
            continue
        print(f"{name}: genuine outputs accepted")
        for label, expect, mutate in MUTATIONS[name]:
            bad = copy.deepcopy(rec)
            mutate(bad)
            found = [line for line in workload.check(bad) if expect in line]
            ok &= bool(found)
            print(f"  {'rejected' if found else 'NOT REJECTED'}: {label}"
                  + (f" -> {found[0]}" if found else ""))
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
