"""Configuration-driven experiment runner.

Subcommands: solve, dual-bound, release-curve, classify, evolve, poincare,
meyers-verify.  Outputs are CSV tables (plus SVG line plots) written
atomically into the output directory; reruns with a fixed seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import report
from .config import ExperimentConfig, check_cells, load_config
from .dual import release_bound
from .energy import RADIAL_SOFT, RADIAL_STIFF, meyers_integrand
from .errors import (
    BudgetTooLarge,
    CompatibilityViolated,
    ConfigError,
    DegenerateFit,
    EigenNoConvergence,
    EmptyFamily,
    FractureLabError,
    InsufficientData,
    InvalidProbe,
    NoConvergence,
    NonConformingCrack,
    RadiusUnresolvable,
    ResidualTooLarge,
    SingularSystem,
    UnresolvableCover,
)
from .geometry import CrackSet, Domain, Grid, read_crack_file
from .quasistatic import evolve, initiation_report, load_horizon
from .search import EnergyLandscape, release_curve
from .singularity import classify, meyers_gamma, meyers_profile
from .solver import bulk_energy, solve, stress, total_energy

EXIT_CODES = [
    ((ConfigError,), 2),
    ((NonConformingCrack, BudgetTooLarge, InvalidProbe), 3),
    ((SingularSystem, NoConvergence), 4),
    ((UnresolvableCover, CompatibilityViolated, ResidualTooLarge), 5),
    ((EmptyFamily, InsufficientData, RadiusUnresolvable, DegenerateFit), 6),
    ((EigenNoConvergence,), 7),
]


def _exit_code(exc):
    for classes, code in EXIT_CODES:
        if isinstance(exc, classes):
            return code
    return 8


def _grid_label(grid: Grid):
    return f"{grid.nx}x{grid.ny}"


def _problem(cfg: ExperimentConfig):
    """The grid, integrand, datum and solver tolerance of a config."""
    return cfg.build_grid(), cfg.build_integrand(), cfg.build_datum(), cfg.tol()


def _crack_file(cfg: ExperimentConfig, section, grid: Grid):
    """The crack of [section] crack_file, or None when none is given."""
    path = cfg.get(section, "crack_file", None)
    try:
        return read_crack_file(path, grid) if path else None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the crack file: {exc}", section, "crack_file") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: ExperimentConfig, out, seed):
    grid, integrand, psi, tol = _problem(cfg)
    crack = _crack_file(cfg, "run", grid) or CrackSet(grid)
    k = cfg.get_bounded("run", "toughness", 1.0)
    cfg.reject_unread()
    field, rep = solve(grid, integrand, psi, crack, tol=tol)
    sf = stress(field)

    topo = field.topology
    i, j = grid.node_ij(topo.dof_node)
    side = np.zeros(topo.n_dofs, dtype=int)
    counts = {}
    for d in range(grid.n_nodes, topo.n_dofs):
        node = int(topo.dof_node[d])
        counts[node] = counts.get(node, 0) + 1
        side[d] = counts[node]
    rows = [(int(i[d]), int(j[d]), int(side[d]), float(field.values[d]))
            for d in range(topo.n_dofs)]
    report.write_csv(os.path.join(out, "field.csv"), ["i", "j", "side", "u"],
                     rows, _grid_label(grid), seed)
    ci, cj = grid.cell_ij(np.arange(grid.n_cells))
    srows = [(int(ci[c]), int(cj[c]), float(sf.sigma[c, 0]), float(sf.sigma[c, 1]))
             for c in range(grid.n_cells)]
    report.write_csv(os.path.join(out, "stress.csv"),
                     ["cell_i", "cell_j", "sx", "sy"], srows, _grid_label(grid), seed)
    print(f"solve: bulk={bulk_energy(field):.9g} "
          f"total={total_energy(field, crack, k):.9g} "
          f"iters={rep.iterations} residual={rep.residual:.3e} "
          f"div_res={sf.div_residual:.3e}")


def cmd_dual_bound(cfg: ExperimentConfig, out, seed):
    grid, integrand, psi, tol = _problem(cfg)
    m = cfg.get_count("dual_bound", "m", 1)
    crack = _crack_file(cfg, "dual_bound", grid)
    cracks = []
    if crack is not None:
        cracks.append(crack)
    else:
        anchor = cfg.get_point("dual_bound", "anchor")
        lengths = cfg.get_counts("dual_bound", "lengths", required=True)
        orient = cfg.get("dual_bound", "orientation", "h")
        if orient not in ("h", "v"):
            raise ConfigError(f"must be h or v, got {orient!r}", "dual_bound", "orientation")
        if not grid.domain.contains(*anchor):
            raise ConfigError(f"{anchor[0]:g} {anchor[1]:g} is outside the domain",
                              "dual_bound", "anchor")
        fi = (anchor[0] - grid.domain.x0) / grid.h
        fj = (anchor[1] - grid.domain.y0) / grid.h
        i0, j0 = round(fi), round(fj)
        snap = max(abs(fi - i0), abs(fj - j0)) * grid.h
        if snap > 1e-6 * grid.h:        # the snap tolerance of read_crack_file
            raise ConfigError(f"{anchor[0]:g} {anchor[1]:g} is off the grid's nodes by {snap:g}",
                              "dual_bound", "anchor")
        room = grid.nx - i0 if orient == "h" else grid.ny - j0
        if max(lengths) > room:
            raise ConfigError(f"a slit of {max(lengths)} edges leaves the grid; "
                              f"at most {room} fit from the anchor", "dual_bound", "lengths")
        for n in lengths:
            if orient == "h":
                cracks.append(CrackSet(grid, [("h", i0 + kk, j0) for kk in range(n)]))
            else:
                cracks.append(CrackSet(grid, [("v", i0, j0 + kk) for kk in range(n)]))
    cfg.reject_unread()

    base_field, _ = solve(grid, integrand, psi, tol=tol)
    base_stress = stress(base_field)
    base = (base_field, base_stress)
    h1s, bounds, releases = [], [], []
    for crack in cracks:
        rb = release_bound(grid, integrand, psi, crack, m, base=base, tol=tol)
        cracked, _ = solve(grid, integrand, psi, crack, tol=tol)
        rel = bulk_energy(base_field) - bulk_energy(cracked)
        h1s.append(rb.h1)
        bounds.append(rb.bound)
        releases.append(rel)
    alpha = float("nan")
    if len(cracks) >= 2 and all(b > 0 for b in bounds):
        alpha = float(np.polyfit(np.log(h1s), np.log(bounds), 1)[0])
    rows = [(idx, h1s[idx], bounds[idx], releases[idx],
             bounds[idx] / h1s[idx] if h1s[idx] > 0 else 0.0, alpha)
            for idx in range(len(cracks))]
    report.write_csv(os.path.join(out, "bound_report.csv"),
                     ["crack_id", "h1", "bound", "release_measured", "ratio", "alpha_fit"],
                     rows, _grid_label(grid), seed)
    ok = all(r <= b + 1e-9 * (1 + abs(b)) for r, b in zip(releases, bounds))
    print(f"dual-bound: {len(cracks)} cracks, dominance={'ok' if ok else 'VIOLATED'}, "
          f"alpha_fit={alpha:.4g}")


def cmd_release_curve(cfg: ExperimentConfig, out, seed):
    grid, integrand, psi, tol = _problem(cfg)
    family = cfg.build_family(grid)
    k = cfg.get_bounded("release_curve", "k", 1.0)
    option = "budgets"
    budgets = cfg.get_floats("release_curve", "budgets", None)
    if budgets is None:
        option = "l_max"
        l_max = cfg.get_bounded("release_curve", "l_max")
        levels = cfg.get_count("release_curve", "levels", 7)
        budgets = [l_max * 2.0 ** (-i) for i in range(levels)]
    if not all(0 < b < math.inf for b in budgets):     # an l_max ladder can underflow to 0
        raise ConfigError(f"every budget must be finite and > 0, got {budgets}",
                          "release_curve", option)
    cfg.reject_unread()
    landscape = EnergyLandscape(grid, integrand, psi, tol=tol)
    try:
        curve = release_curve(landscape, family, budgets, k)
    except ValueError as exc:
        raise ConfigError(str(exc), "release_curve", "budgets") from None
    rows = [(curve.budgets[i], curve.W[i], curve.rates[i], curve.argmin_ids[i],
             curve.totals[i]) for i in range(len(budgets))]
    report.write_csv(os.path.join(out, "curve.csv"),
                     ["l", "W", "rate", "argmin_id", "total_energy"],
                     rows, _grid_label(grid), seed)
    report.write_svg_line(os.path.join(out, "rates.svg"), curve.budgets, curve.rates,
                          title="release rate vs budget")
    print(f"release-curve: W0={curve.W0:.9g} rates "
          f"{curve.rates[0]:.4g} -> {curve.rates[-1]:.4g} over {len(budgets)} budgets "
          f"({len(family)} candidates)")


def cmd_classify(cfg: ExperimentConfig, out, seed):
    grid, integrand, psi, tol = _problem(cfg)
    probes = []
    for chunk in cfg.get("classify", "probes", required=True).split(";"):
        try:
            xy = tuple(float(t) for t in chunk.replace(",", " ").split())
        except ValueError:
            xy = ()
        if len(xy) != 2 or not all(map(math.isfinite, xy)):
            raise ConfigError(f"each probe needs two finite numbers 'x y', got {chunk.strip()!r}",
                              "classify", "probes")
        probes.append(xy)
    margin = cfg.get_bounded("classify", "margin", 0.1, closed=True)
    crack = _crack_file(cfg, "classify", grid)
    cfg.reject_unread()
    field, _ = solve(grid, integrand, psi, crack, tol=tol)
    rep = classify(field, probes, margin=margin)
    rows = [(p.x, p.y, p.alpha, p.C, p.classification, p.delta) for p in rep.probes]
    report.write_csv(os.path.join(out, "singularity.csv"),
                     ["x", "y", "alpha", "C", "class", "delta"],
                     rows, _grid_label(grid), seed)
    summary = ", ".join(f"({p.x:.3g},{p.y:.3g})={p.classification}" for p in rep.probes)
    print(f"classify: {summary}")


def cmd_evolve(cfg: ExperimentConfig, out, seed):
    grid, integrand, psi, tol = _problem(cfg)
    family = cfg.build_family(grid)
    k = cfg.get_bounded("evolve", "k", 1.0)
    horizon = cfg.get_bounded("evolve", "horizon")
    steps = cfg.get_count("evolve", "steps", 200)
    cfg.reject_unread()
    landscape = EnergyLandscape(grid, integrand, psi, tol=tol)
    traj = evolve(landscape, family, k, horizon, steps)
    rows = [(float(traj.t[j]), float(traj.h1[j]), float(traj.bulk[j]),
             float(traj.surface[j]), float(traj.total[j]), float(traj.work[j]),
             float(traj.balance_residual[j])) for j in range(len(traj.t))]
    report.write_csv(os.path.join(out, "trajectory.csv"),
                     ["t", "h1", "bulk", "surface", "total", "work", "balance_residual"],
                     rows, _grid_label(grid), seed)
    report.write_svg_line(os.path.join(out, "h1.svg"), traj.t, traj.h1,
                          title="crack length vs time")
    resolution = max(3 * grid.h, min(c.h1() for c in family.members))
    ini = initiation_report(traj, resolution=resolution)
    hor = load_horizon(landscape, k)
    print(f"evolve: initiation={ini.classification} t_i={ini.t_i:.6g} "
          f"jump={ini.jump:.6g} T_debond={hor.t_weighted:.6g}")


def cmd_poincare(cfg: ExperimentConfig, out, seed):
    from .poincare import CASES, uniformity_sweep

    case = cfg.get("poincare", "case", required=True)
    if case not in CASES:
        raise ConfigError(f"unknown case {case!r} (choose from {CASES})", "poincare", "case")
    L = cfg.get_bounded("poincare", "L", closed=True)
    M = cfg.get_bounded("poincare", "M", low=1.0, closed=True)
    samples = cfg.get_count("poincare", "samples", 1)
    resolution = cfg.get_count("poincare", "resolution", 48)
    check_cells(resolution * M, "poincare", "resolution")     # keeps ceil finite
    check_cells(resolution * math.ceil(resolution * M), "poincare", "resolution")  # a mesh
    cfg.reject_unread()
    sweep = uniformity_sweep(L, M, samples, case, nx=resolution, seed=seed)
    rows = [(case, L, M, idx, c, resolution) for idx, c in enumerate(sweep.constants)]
    report.write_csv(os.path.join(out, "poincare.csv"),
                     ["case", "L", "M", "profile_id", "C", "resolution"],
                     rows, f"{resolution}", seed)
    print(f"poincare: case {case} max C={sweep.max_C:.6g} over {samples} profiles "
          f"(stability ratio {sweep.stability_ratio():.4g})")


def cmd_meyers_verify(cfg: ExperimentConfig, out, seed):
    """Resolve which anisotropy orientation carries the strong singularity.

    For each orientation, the radial equation gamma^2 a_rad = a_tan fixes the
    exponent of the solution r^gamma cos(theta); solving numerically with the
    matching boundary trace and fitting the local-energy exponent at the
    origin cross-checks it.  The stiff-radial orientation yields gamma = 1/K,
    hence local energies ~ r^(2/K): strong for K > 2, critical at K = 2.
    """
    K = cfg.get_bounded("meyers_verify", "K", 3.0, low=1.0, closed=True)
    n = cfg.get_int("meyers_verify", "n", 128)
    if n < 2:
        raise ConfigError(f"must be >= 2, got {n}", "meyers_verify", "n")
    check_cells(n * n, "meyers_verify", "n")
    tol = cfg.tol()
    cfg.reject_unread()
    domain = Domain.unit_square(dirichlet="all", centered=True)
    grid = Grid(domain, n)
    rows = []
    for orientation in (RADIAL_SOFT, RADIAL_STIFF):
        gamma = meyers_gamma(K, orientation)
        integrand = meyers_integrand(K, orientation)
        psi = meyers_profile(K, orientation)
        field, _ = solve(grid, integrand, psi, tol=tol)
        origin = classify(field, [(0.0, 0.0)]).probes[0]
        alpha, cls = origin.alpha, origin.classification
        rows.append((orientation, gamma, 2.0 * gamma, alpha, cls))
        print(f"meyers-verify: {orientation:13s} gamma={gamma:.6g} "
              f"alpha_theory={2*gamma:.6g} alpha_fit={alpha:.4g} -> {cls}")
    report.write_csv(os.path.join(out, "meyers.csv"),
                     ["orientation", "gamma", "alpha_theory", "alpha_fit", "class"],
                     rows, _grid_label(grid), seed)
    print(f"meyers-verify: strong-singularity orientation at K={K:g} is "
          f"'{RADIAL_STIFF}' (singular for K > 2, critical at K = 2)")


COMMANDS = {
    "solve": cmd_solve,
    "dual-bound": cmd_dual_bound,
    "release-curve": cmd_release_curve,
    "classify": cmd_classify,
    "evolve": cmd_evolve,
    "poincare": cmd_poincare,
    "meyers-verify": cmd_meyers_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fracturelab",
        description="variational crack-initiation laboratory (batch experiments)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed (u64)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = cfg.out_dir(args.out)
        seed = cfg.seed(args.seed)
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory: {exc}", "run", "out") from None
        try:
            COMMANDS[args.command](cfg, out, seed)
        except OSError as exc:  # past the crack file, a command's file I/O is its output
            raise ConfigError(f"cannot write an output file: {exc}", "run", "out") from None
        return 0
    except FractureLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
