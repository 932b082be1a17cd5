"""Discrete irreversible quasistatic evolution under the load t -> t * psi.

Time-incremental greedy scheme: at each time the state minimizes the total
energy among the previous crack united with every family member (unilateral
minimality over the tested closure), exploiting p-homogeneity to solve every
candidate once at unit datum and scale energies by t^p.  Irreversibility,
per-step minimality and the energy balance are checked a posteriori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import PPOWER, QUADRATIC
from .errors import InsufficientData
from .geometry import CrackSet, Grid, cut_grid
from .search import CrackFamily, EnergyLandscape, argmin_with_tolerance, lift
from .solver import solve

ZERO_SPEED_MARGIN = 0.5
PROGRESSIVE_EDGES = 3
BRUTAL_EDGES = 10


@dataclass
class Trajectory:
    """Time grid with the evolving crack and its energy bookkeeping.

    bulk/surface/total are at the loaded datum t * psi; work is the
    trapezoidal accumulation of the external power; balance_residual is
    |E(t) - E(0) - work(t)| per step.  Displacements are stored once per
    distinct crack at unit datum and scaled on access (u(t) = t * v).
    unit_values maps each chosen crack's edge set to its unit-datum dof
    values on cut_grid(grid, crack); a crack solved through its effective
    crack (see search.EnergyLandscape) gets that solve's values lifted.
    """

    t: np.ndarray
    h1: np.ndarray
    bulk: np.ndarray
    surface: np.ndarray
    total: np.ndarray
    work: np.ndarray
    balance_residual: np.ndarray
    cracks: list
    p: float
    k: float
    bulk_unit_empty: float
    grid_h: float
    unit_values: dict = None  # crack edge-set -> unit-datum dof values

    def first_crack_index(self):
        idx = np.nonzero(self.h1 > 0)[0]
        return int(idx[0]) if len(idx) else None

    def displacement(self, j):
        """Nodal displacement at step j (t_j times the unit-datum solve)."""
        if self.unit_values is None:
            raise ValueError("trajectory was built without stored fields")
        return self.t[j] * self.unit_values[self.cracks[j].edges]


def evolve(landscape: EnergyLandscape, family: CrackFamily, k: float,
           horizon: float, steps: int = 200, workers: int = 1) -> Trajectory:
    """Greedy incremental evolution on a uniform time grid of ``steps`` steps.

    Needs a p-homogeneous integrand (both shipped kinds are); the candidate
    set at each step is {previous} + {previous union member}.  workers is
    accepted and ignored: candidates are solved serially, and callers that
    pass a worker count positionally keep working.
    """
    integrand = landscape.integrand
    if integrand.kind not in (PPOWER, QUADRATIC):
        raise ValueError("evolution requires a p-homogeneous integrand kind")
    p = integrand.p
    grid = landscape.grid

    # unit-datum uncracked field: reference gradient for the external power
    v_field = landscape.solve_field()
    v_grad = v_field.gradients()
    xc, yc = grid.cell_centers()
    h2 = grid.h ** 2
    # wdot_unit and step_values are keyed by effective edges, with
    # step_values on the effective crack's cut grid
    wdot_unit = {}      # external power at unit datum
    unit_values = {}    # chosen crack edge-set -> unit-datum dof values
    step_values = {}    # the current step's candidates -> unit-datum dof values

    # pairing the stress with the uncracked unit field equals pairing with any
    # lift of the datum, because their difference is an admissible variation.
    # bulk_many calls it with effective cracks.
    def record(crack: CrackSet, fld):
        sig = integrand.grad_f(xc, yc, fld.gradients())
        wdot_unit[crack.edges] = h2 * float(np.einsum("ci,ci->", sig, v_grad))
        step_values[crack.edges] = fld.values

    crack = landscape.empty_crack
    record(crack, v_field)
    unit_values[crack.edges] = v_field.values
    times = np.linspace(0.0, horizon, steps + 1)
    cracks = [crack]
    h1s = [0.0]
    bulks = [0.0]
    works = [0.0]
    power_prev = 0.0
    for j in range(1, len(times)):
        t = times[j]
        cands = [crack]
        seen = {crack.edges}
        for member in family.members:
            u = crack.union(member)
            if u.edges not in seen:
                seen.add(u.edges)
                cands.append(u)
        # a candidate stays one at every later step for as long as it contains
        # the chosen crack, so carrying the values of the candidates' classes
        # forward from step to step covers every later pick
        effs = [landscape.effective(c).edges for c in cands]
        kept = {e: step_values[e] for e in effs if e in step_values}
        step_values.clear()
        step_values.update(kept)
        unit_bulks = landscape.bulk_many(cands, on_field=record)
        totals = [t ** p * b + k * c.h1() for b, c in zip(unit_bulks, cands)]
        pick = argmin_with_tolerance(totals)
        crack = cands[pick]
        eff = landscape.effective(crack)
        if crack.edges not in unit_values:
            if eff.edges not in step_values:
                # energy cached before evolve began
                record(eff, landscape.solve_field(eff))
            values = step_values[eff.edges]
            if len(eff) != len(crack):
                values = lift(values, cut_grid(grid, eff), cut_grid(grid, crack))
            unit_values[crack.edges] = values
        cracks.append(crack)
        h1s.append(crack.h1())
        bulks.append(t ** p * unit_bulks[pick])
        power = t ** (p - 1.0) * wdot_unit[eff.edges]
        works.append(works[-1] + 0.5 * (times[j] - times[j - 1]) * (power_prev + power))
        power_prev = power

    t = np.asarray(times)
    h1 = np.asarray(h1s)
    bulk = np.asarray(bulks)
    surface = k * h1
    total = bulk + surface
    work = np.asarray(works)
    residual = np.abs(total - total[0] - work)
    return Trajectory(t, h1, bulk, surface, total, work, residual, cracks, p, k,
                      landscape.bulk(), grid.h, unit_values)


def energy_balance_residual(traj: Trajectory):
    """Per-step balance residuals plus the rescaled-minimality inequality.

    Returns (residuals, inequality_ok) where inequality_ok[j] checks
    bulk(t) + k H1(Gamma(t)) <= t^p * bulk(v) at every recorded step.
    """
    bound = traj.t ** traj.p * traj.bulk_unit_empty
    slack = 1e-9 * (1.0 + np.abs(bound))
    ok = traj.total <= bound + slack
    return traj.balance_residual.copy(), ok


@dataclass
class InitiationReport:
    t_i: float
    jump: float
    classification: str       # "none" | "progressive" | "brutal"
    l_star_estimate: float
    meets_l_star: bool


def initiation_report(traj: Trajectory, resolution: float = None) -> InitiationReport:
    """Initiation time (last uncracked time), jump size and its class.

    ``resolution`` is the smallest representable crack length: 3 grid edges
    by default, or the shortest family member for families (like circles)
    whose members cannot be that short.  A first crack at most one resolution
    above zero is progressive; anything larger is a jump (brutal), with the
    l* estimate of 10 edges reported against the jump.
    """
    h = traj.grid_h
    l_star_estimate = BRUTAL_EDGES * h
    if resolution is None:
        resolution = PROGRESSIVE_EDGES * h
    idx = traj.first_crack_index()
    if idx is None:
        return InitiationReport(float(traj.t[-1]), 0.0, "none", l_star_estimate, False)
    t_i = float(traj.t[idx - 1]) if idx > 0 else 0.0
    jump = float(traj.h1[idx])
    cls = "progressive" if jump <= resolution * (1 + 1e-9) else "brutal"
    return InitiationReport(t_i, jump, cls, l_star_estimate, jump >= l_star_estimate)


@dataclass
class ZeroSpeedFit:
    exponent: float
    intercept: float
    threshold: float
    passes: bool
    n_points: int


def zero_speed_check(traj: Trajectory, t_max: float = None) -> ZeroSpeedFit:
    """Log-log fit of H1(Gamma(t)) against t over the early cracked steps.

    Passes when the fitted exponent is at least min(p, 1 + margin); an
    exponent above 1 certifies zero initial crack speed.
    """
    mask = traj.h1 > 0
    if t_max is not None:
        mask &= traj.t <= t_max
    tt = traj.t[mask]
    hh = traj.h1[mask]
    if len(tt) < 4:
        raise InsufficientData(f"only {len(tt)} cracked steps to fit")
    slope, intercept = np.polyfit(np.log(tt), np.log(hh), 1)
    threshold = min(traj.p, 1.0 + ZERO_SPEED_MARGIN)
    return ZeroSpeedFit(float(slope), float(math.exp(intercept)), threshold,
                        bool(slope >= threshold), int(len(tt)))


@dataclass
class LoadHorizon:
    """Time threshold beyond which full Dirichlet debonding beats elasticity.

    t_weighted uses the toughness k (total-energy comparison); t_unit is the
    k-normalized form.  Infinite when the datum induces no elastic energy.
    """

    t_weighted: float
    t_unit: float
    dirichlet_length: float
    bulk_unit: float


def load_horizon(grid: Grid, integrand, psi, k: float, tol: float = 1e-10) -> LoadHorizon:
    fld, _ = solve(grid, integrand, psi, tol=tol)
    from .solver import bulk_energy, datum_scale
    bulk_v = bulk_energy(fld)
    h1_d = grid.domain.dirichlet_length()
    # solver noise leaves ~ (tol * scale)^p of spurious energy on flat data
    floor = 1e-16 * max(datum_scale(psi, grid), 1.0) ** integrand.p
    if bulk_v <= floor:
        return LoadHorizon(math.inf, math.inf, h1_d, bulk_v)
    p = integrand.p
    return LoadHorizon(
        (k * h1_d / bulk_v) ** (1.0 / p),
        (h1_d / bulk_v) ** (1.0 / p),
        h1_d,
        bulk_v,
    )
