"""The shipped_configs workload: every configs/*.ini through the CLI.

Each config runs as its own ``python3 -m fracturelab.cli`` process, one at a
time, with the workload seed.  Only the standard library is imported here:
the program is loaded by the CLI processes, not by the process that drives
them.
"""

from __future__ import annotations

import configparser
import csv
import glob
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

EXPERIMENTS = ("release_curve", "evolve", "dual_bound", "meyers_verify", "poincare", "classify")
CLI_TIMEOUT_S = 150


def _count_family(ini, nx, ny, width):
    """Member lengths of the [family] section, enumerated as the program
    enumerates them (anchors on the stride lattice, debond runs per side)."""
    h = width / nx
    lengths = []
    for kind in ini.get("family", "kind").split("+"):
        kind = kind.strip()
        if kind == "segments":
            stride = ini.getint("family", "stride", fallback=max(1, nx // 16))
            for orient in ini.get("family", "orientations", fallback="h v").split():
                for n in (int(float(v)) for v in ini.get("family", "lengths").split()):
                    fits_i = nx - n if orient == "h" else nx
                    fits_j = ny - n if orient == "v" else ny
                    count = (len(range(0, fits_i + 1, stride)) * len(range(0, fits_j + 1, stride))
                             if min(fits_i, fits_j) >= 0 else 0)
                    lengths += [n * h] * count
        elif kind == "circles":
            lengths += [None] * len(ini.get("family", "radii").split())
        elif kind == "boundary_debond":
            spans = [int(float(v)) for v in ini.get("family", "spans", fallback=str(nx)).split()]
            dirichlet = ini.get("domain", "dirichlet", fallback="all").split()
            sides = (("left", "right", "bottom", "top") if dirichlet == ["all"]
                     else sorted(set(dirichlet)))
            for side in sides:
                n = ny if side in ("left", "right") else nx
                runs = {(0, n)}
                for span in spans:
                    span = min(span, n)
                    runs |= {(s, span) for s in range(0, n - span + 1, span)}
                lengths += [span * h for _, span in runs]
        else:
            raise ValueError(f"no candidate count for family kind {kind!r}")
    return lengths


def candidates(ini):
    """Candidate cracks one config scores, from the config alone."""
    if ini.has_section("dual_bound"):
        return len(ini.get("dual_bound", "lengths").split())
    if not (ini.has_section("evolve") or ini.has_section("release_curve")):
        return 0
    x0, y0, x1, y1 = (float(v) for v in ini.get("domain", "rect").split())
    nx = ini.getint("grid", "n")
    ny = ini.getint("grid", "ny", fallback=round(nx * (y1 - y0) / (x1 - x0)))
    lengths = _count_family(ini, nx, ny, x1 - x0)
    if ini.has_section("evolve"):
        return ini.getint("evolve", "steps", fallback=200) * (len(lengths) + 1)
    if ini.has_option("release_curve", "budgets"):
        budgets = [float(v) for v in ini.get("release_curve", "budgets").split()]
    else:
        l_max = ini.getfloat("release_curve", "l_max")
        levels = ini.getint("release_curve", "levels", fallback=7)
        budgets = [l_max * 2.0 ** -i for i in range(levels)]
    return sum(1 + sum(l <= b * (1 + 1e-12) for l in lengths) for b in budgets)


def read_rows(data):
    """CSV bytes as row dicts, without the trailing '# version=...' line."""
    lines = data.decode("utf-8").splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def _close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(b))


def check_release_curve(ini, csvs):
    bad = []
    for row in csvs["curve.csv"]:
        l, W, rate = float(row["l"]), float(row["W"]), float(row["rate"])
        if not _close(W + rate * l, 1.0, 1e-9):
            bad.append(f"release_curve: W0 = W + rate*l = {W + rate * l!r} at l={l}, "
                       f"closed form 1")
    return bad


def _first_crack(rows):
    return next((j for j, r in enumerate(rows) if float(r["h1"]) > 0), None)


def check_weak_evolve(ini, csvs):
    rows = csvs["trajectory.csv"]
    t_star = math.sqrt(ini.getfloat("evolve", "k") * 1.0 / 1.0)  # k * H1(full cut) / W0
    j = _first_crack(rows)
    if (j is None or j == 0 or not float(rows[j - 1]["t"]) < t_star <= float(rows[j]["t"])
            or not _close(float(rows[j]["h1"]), 1.0, 1e-12)):
        return [f"weak_evolve: first crack at row {j}, expected a full-length jump in the "
                f"step containing t* = {t_star}"]
    return []


def circle_length(ini, r):
    """Length of the staircase circle of radius r around the family centre:
    the edges between the cells whose centres lie in the disc and the rest."""
    x0, y0, x1, y1 = (float(v) for v in ini.get("domain", "rect").split())
    n = ini.getint("grid", "n")
    h = (x1 - x0) / n
    cx, cy = (float(v) for v in ini.get("family", "center").split())
    inside = {(i, j) for i in range(n) for j in range(round((y1 - y0) / h))
              if (x0 + (i + 0.5) * h - cx) ** 2 + (y0 + (j + 0.5) * h - cy) ** 2 <= r * r}
    return h * sum((i + di, j + dj) not in inside
                   for i, j in inside for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))


def check_meyers_evolve(ini, csvs):
    rows = csvs["trajectory.csv"]
    j = _first_crack(rows)
    # the CLI's initiation resolution: max(3h, shortest member length)
    x0, _, x1, _ = (float(v) for v in ini.get("domain", "rect").split())
    r_min = min(float(v) for v in ini.get("family", "radii").split())
    resolution = max(3 * (x1 - x0) / ini.getint("grid", "n"), circle_length(ini, r_min))
    if j != 1 or float(rows[j]["h1"]) > resolution * (1 + 1e-12):
        return [f"meyers_evolve: first crack at row {j}"
                + (f" of length {rows[j]['h1']}" if j is not None else "")
                + f", expected progressive at t = 0, at most {resolution!r} long"]
    return []


def check_dual_bound(ini, csvs):
    bad = []
    for row in csvs["bound_report.csv"]:
        bound, rel = float(row["bound"]), float(row["release_measured"])
        if rel < 0.0 or bound < rel - 1e-9 * (1.0 + abs(bound)):
            bad.append(f"dual_bound: bound {bound!r} vs measured release {rel!r}")
        if not float(row["alpha_fit"]) > 1.0:
            bad.append(f"dual_bound: fitted exponent {row['alpha_fit']}, expected above 1")
    return bad


def check_elastic_p15(ini, csvs):
    p = ini.getfloat("integrand", "p")
    bad = []
    for row in csvs["trajectory.csv"]:
        t, bulk = float(row["t"]), float(row["bulk"])
        if float(row["h1"]) != 0.0 or not _close(bulk, t ** p / p, 1e-9):
            bad.append(f"elastic_p15: bulk {bulk!r} at t={t}, closed form t^p/p = {t ** p / p!r}")
    return bad


def check_meyers_verify(ini, csvs):
    K = ini.getfloat("meyers_verify", "K")
    for row in csvs["meyers.csv"]:
        if row["orientation"] == "radial_stiff" and abs(float(row["alpha_fit"]) - 2.0 / K) > 0.1:
            return [f"meyers_verify: stiff-radial fit {row['alpha_fit']}, expected near 2/K"]
    return []


def check_poincare_sweep(ini, csvs):
    for row in csvs["poincare.csv"]:
        C = float(row["C"])
        if not (0.0 < C < math.inf):
            return [f"poincare_sweep: constant {C!r}"]
    return []


CHECKS = {
    "release_curve.ini": check_release_curve,
    "weak_evolve.ini": check_weak_evolve,
    "meyers_evolve.ini": check_meyers_evolve,
    "dual_bound.ini": check_dual_bound,
    "elastic_p15.ini": check_elastic_p15,
    "meyers_verify.ini": check_meyers_verify,
    "poincare_sweep.ini": check_poincare_sweep,
}


class ShippedConfigs:
    """One pass runs every shipped config once, each in its own process."""

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.configs = []
        for path in sorted(glob.glob(os.path.join(root, "configs", "*.ini"))):
            ini = configparser.ConfigParser(inline_comment_prefixes=("#",))
            ini.read(path)
            command = next(s for s in EXPERIMENTS if ini.has_section(s)).replace("_", "-")
            self.configs.append((os.path.basename(path), path, command, ini))
        self.first_bytes = None   # CSV bytes of the first pass, per config
        self.out_dir = os.path.join(root, "bench", "out")
        os.makedirs(self.out_dir, exist_ok=True)

    def candidates(self, inp):
        return sum(candidates(ini) for _, _, _, ini in self.configs)

    def run(self, inp, ops, tracer=None):
        """Run every config; returns {config: {csv name: bytes}} for the
        configs that exited with code 0."""
        out = {}
        scratch = tempfile.mkdtemp(prefix="pass-", dir=self.out_dir)
        try:
            for name, path, command, _ in self.configs:
                cfg_out = os.path.join(scratch, name[:-4])
                cli = [command, "--config", path, "--out", cfg_out, "--seed", str(self.seed)]
                if tracer is None:
                    cmd = [sys.executable, "-m", "fracturelab.cli"] + cli
                else:
                    trace_file = cfg_out + ".trace.json"
                    cmd = [sys.executable, os.path.join(self.root, "bench", "tracing.py"),
                           "--out", trace_file, "--"] + cli
                ops.attempted += 1
                proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
                if proc.returncode != 0:
                    ops.failed += 1
                    print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}",
                          file=sys.stderr)
                    continue
                if tracer is not None:
                    with open(trace_file, encoding="utf-8") as f:
                        tracer.merge(json.load(f))
                out[name] = {}
                for p in sorted(glob.glob(os.path.join(cfg_out, "*.csv"))):
                    with open(p, "rb") as f:
                        out[name][os.path.basename(p)] = f.read()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return out

    def record(self, inp, raw):
        return raw

    def check(self, rec):
        bad = []
        if self.first_bytes is None:
            self.first_bytes = rec
        for name, files in rec.items():
            first = self.first_bytes.get(name)
            if first is not None and files != first:
                bad.append(f"{name}: CSVs differ from the first pass")
        inis = {name: ini for name, _, _, ini in self.configs}
        for name, files in rec.items():
            check = CHECKS.get(name)
            if check is not None:
                bad += check(inis[name], {f: read_rows(data) for f, data in files.items()})
        return bad
