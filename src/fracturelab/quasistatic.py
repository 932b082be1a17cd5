"""Discrete irreversible quasistatic evolution under the load t -> t * psi.

Time-incremental greedy scheme: at each time the state minimizes the total
energy among the previous crack united with every family member (unilateral
minimality over the tested closure), exploiting p-homogeneity to solve every
candidate once at unit datum and scale energies by t^p and external powers
by t^(p - 1).  Both come from the landscape's cache (search.EnergyLandscape),
so an evolution solves only the cracks no earlier caller solved.
Irreversibility, per-step minimality and the energy balance are checked a
posteriori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import PPOWER, QUADRATIC
from .errors import InsufficientData
from .search import CrackFamily, EnergyLandscape, argmin_with_tolerance
from .solver import datum_scale

ZERO_SPEED_MARGIN = 0.5
PROGRESSIVE_EDGES = 3
BRUTAL_EDGES = 10


@dataclass
class Trajectory:
    """Time grid with the evolving crack and its energy bookkeeping.

    bulk/surface/total are at the loaded datum t * psi; work is the
    trapezoidal accumulation of the external power; balance_residual is
    |E(t) - E(0) - work(t)| per step.  No field is stored: displacement()
    re-solves a step's crack at unit datum on the landscape it evolved on.
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

    def first_crack_index(self):
        idx = np.nonzero(self.h1 > 0)[0]
        return int(idx[0]) if len(idx) else None

    def displacement(self, j, landscape: EnergyLandscape):
        """Nodal displacement at step j: t_j times the unit-datum solve of
        cracks[j] on landscape, which must be the one evolve ran on."""
        if landscape.bulk() != self.bulk_unit_empty:
            raise ValueError("landscape is not the one this trajectory evolved on")
        return self.t[j] * landscape.solve_field(self.cracks[j]).values


def evolve(landscape: EnergyLandscape, family: CrackFamily, k: float,
           horizon: float, steps: int = 200, workers: int = 1) -> Trajectory:
    """Greedy incremental evolution on a uniform time grid of ``steps`` steps.

    Needs a p-homogeneous integrand (both shipped kinds are); the candidate
    set at each step is {previous} + {previous union member}, rebuilt with its
    unit-datum energies only when the crack changes.  Energies and external
    powers at unit datum are read from the landscape, which solves a crack
    only when nothing cached it.  workers is ignored: candidates are solved
    serially.  It stays only for the benchmark's positional 1, and goes with
    the first change to bench/ (ROADMAP item E).
    """
    integrand = landscape.integrand
    if integrand.kind not in (PPOWER, QUADRATIC):
        raise ValueError("evolution requires a p-homogeneous integrand kind")
    p = integrand.p

    crack = landscape.empty_crack
    times = np.linspace(0.0, horizon, steps + 1)
    cracks = [crack]
    h1s = [0.0]
    bulks = [0.0]
    works = [0.0]
    power_prev = 0.0
    for j in range(1, len(times)):
        t = times[j]
        if j == 1 or pick:      # the crack changed: build its candidates
            cands = [crack]
            seen = {crack.edges}
            for member in family.members:
                u = crack.union(member)
                if u.edges not in seen:
                    seen.add(u.edges)
                    cands.append(u)
            unit_bulks = landscape.bulk_many(cands)
            lengths = [c.h1() for c in cands]
        totals = [t ** p * b + k * l for b, l in zip(unit_bulks, lengths)]
        pick = argmin_with_tolerance(totals)
        crack = cands[pick]
        cracks.append(crack)
        h1s.append(lengths[pick])
        bulks.append(t ** p * unit_bulks[pick])
        power = t ** (p - 1.0) * landscape.power(crack)
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
                      landscape.bulk(), landscape.grid.h)


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


def load_horizon(landscape: EnergyLandscape, k: float) -> LoadHorizon:
    """Debonding threshold of landscape's problem, from its uncracked energy
    (landscape.bulk(), solved once per landscape)."""
    grid = landscape.grid
    bulk_v = landscape.bulk()
    h1_d = grid.domain.dirichlet_length()
    p = landscape.integrand.p
    # solver noise leaves ~ (tol * scale)^p of spurious energy on flat data
    floor = 1e-16 * max(datum_scale(landscape.psi, grid), 1.0) ** p
    if bulk_v <= floor:
        return LoadHorizon(math.inf, math.inf, h1_d, bulk_v)
    return LoadHorizon(
        (k * h1_d / bulk_v) ** (1.0 / p),
        (h1_d / bulk_v) ** (1.0 / p),
        h1_d,
        bulk_v,
    )
