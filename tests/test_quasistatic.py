import math
import os

import numpy as np
import pytest

from fracturelab import search
from fracturelab.config import load_config
from fracturelab.energy import laplace_integrand, meyers_integrand, ppower_integrand
from fracturelab.errors import InsufficientData
from fracturelab.geometry import Domain, Grid
from fracturelab.quasistatic import (
    Trajectory,
    energy_balance_residual,
    evolve,
    initiation_report,
    load_horizon,
    zero_speed_check,
)
from fracturelab.search import (
    EnergyLandscape,
    boundary_debond_family,
    circles_family,
    concat_families,
    segments_family,
)
from fracturelab.singularity import meyers_profile

from conftest import linear_x


def weak_landscape(n=48):
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), n)
    return EnergyLandscape(grid, laplace_integrand(), linear_x)


def weak_family(grid):
    segs = segments_family(grid, grid.nx // 4, [grid.nx // 2, grid.nx],
                           orientations=("v",))
    deb = boundary_debond_family(grid, [grid.nx // 2])
    return concat_families(segs, deb)


def test_huge_toughness_stays_elastic():
    land = weak_landscape(32)
    fam = weak_family(land.grid)
    traj = evolve(land, fam, k=1e9, horizon=1.0, steps=50)
    assert np.all(traj.h1 == 0.0)
    # exact p=2 scaling of the bulk and of the stored displacements
    assert np.allclose(traj.bulk, traj.t ** 2 * land.bulk(), rtol=1e-10)
    v = land.solve_field().values
    assert np.allclose(traj.displacement(25, land), traj.t[25] * v, atol=1e-12)
    rep = initiation_report(traj)
    assert rep.classification == "none"
    assert rep.t_i == pytest.approx(1.0)
    # rescaled minimality holds trivially with the empty crack
    _, ok = energy_balance_residual(traj)
    assert ok.all()


def test_weak_initiation_is_brutal():
    land = weak_landscape(48)
    fam = weak_family(land.grid)
    traj = evolve(land, fam, k=1.0, horizon=1.5, steps=150)
    rep = initiation_report(traj)
    assert rep.classification == "brutal"
    assert rep.t_i > 0.9
    assert rep.jump >= 10 * land.grid.h
    assert rep.meets_l_star
    # irreversibility
    for a, b in zip(traj.cracks, traj.cracks[1:]):
        assert a.edges <= b.edges
    _, ok = energy_balance_residual(traj)
    assert ok.all()


def test_unilateral_minimality_certificate():
    land = weak_landscape(32)
    fam = weak_family(land.grid)
    k = 1.0
    traj = evolve(land, fam, k=k, horizon=1.4, steps=40)
    for j in range(1, len(traj.t)):
        t = traj.t[j]
        prev = traj.cracks[j - 1]
        chosen = traj.total[j]
        for member in fam.members:
            competitor = prev.union(member)
            total = t ** 2 * land.bulk(competitor) + k * competitor.h1()
            assert chosen <= total + 1e-9 * (1 + abs(total))


def test_evolve_builds_candidates_once_per_crack(monkeypatch):
    land = weak_landscape(32)
    fam = weak_family(land.grid)
    calls = []
    bulk_many = EnergyLandscape.bulk_many

    def counting(self, cracks):
        calls.append(len(cracks))
        return bulk_many(self, cracks)

    monkeypatch.setattr(EnergyLandscape, "bulk_many", counting)
    traj = evolve(land, fam, k=1.0, horizon=1.4, steps=40)
    changes = sum(a.edges != b.edges for a, b in zip(traj.cracks, traj.cracks[1:]))
    assert changes >= 1
    assert len(calls) == 1 + changes


def test_evolve_reads_what_the_landscape_cached_before_it_began(monkeypatch):
    # energies and external powers cached by bulk() before evolve: evolve
    # solves nothing, and its trajectory is bit for bit a fresh landscape's
    grid = Grid(Domain.unit_square(dirichlet="all", centered=True), 32)

    def landscape():
        return EnergyLandscape(grid, meyers_integrand(3.0, "radial_stiff"),
                               meyers_profile(3.0, "radial_stiff"))

    fam = circles_family(grid, (0.0, 0.0), [0.06, 0.1, 0.16, 0.25])
    fresh = evolve(landscape(), fam, k=0.05, horizon=1.0, steps=40)
    assert fresh.first_crack_index() is not None
    warm = landscape()
    warm.bulk()
    for circle in fam:
        warm.bulk(circle)
    solves = []
    solve = search.solve

    def counting(*args, **kwargs):
        solves.append(args[3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(search, "solve", counting)
    traj = evolve(warm, fam, k=0.05, horizon=1.0, steps=40)
    assert solves == []
    for name in ("t", "h1", "bulk", "work", "balance_residual"):
        assert np.array_equal(getattr(traj, name), getattr(fresh, name)), name


def test_displacement_needs_the_landscape_it_evolved_on():
    land = weak_landscape(32)
    traj = evolve(land, weak_family(land.grid), k=1.0, horizon=1.4, steps=40)
    j = int(np.argmax(traj.h1))
    assert np.array_equal(traj.displacement(j, land),
                          traj.t[j] * land.solve_field(traj.cracks[j]).values)
    other = EnergyLandscape(land.grid, land.integrand, lambda x, y: 2.0 * linear_x(x, y))
    with pytest.raises(ValueError):
        traj.displacement(j, other)


def test_scaling_exactness_frozen_crack():
    land = weak_landscape(32)
    crack = list(weak_family(land.grid))[0]
    b1 = land.bulk(crack)
    for t in (0.5, 2.0):
        grid = land.grid
        scaled = EnergyLandscape(grid, land.integrand,
                                 lambda x, y, t=t: t * np.asarray(x, dtype=float))
        assert scaled.bulk(crack) == pytest.approx(t ** 2 * b1, rel=1e-9)


def test_elastic_balance_residual_p15_and_halving():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 24)
    land = EnergyLandscape(grid, ppower_integrand(1.5, 1.0), linear_x)
    fam = segments_family(grid, 12, [2], orientations=("v",))
    res = {}
    for steps in (200, 400):
        traj = evolve(land, fam, k=1e9, horizon=1.0, steps=steps)
        assert np.all(traj.h1 == 0.0)
        res[steps] = traj.balance_residual.max()
    assert res[200] <= 1e-3
    assert res[400] <= 0.5 * res[200] + 1e-12


def test_initiation_progressive_with_family_resolution():
    t = np.linspace(0, 1, 11)
    h1 = np.where(t > 0, 0.05, 0.0)
    traj = Trajectory(t, h1, np.zeros_like(t), np.zeros_like(t), np.zeros_like(t),
                      np.zeros_like(t), np.zeros_like(t), [None] * len(t), 2.0,
                      1.0, 1.0, 0.01)
    rep3 = initiation_report(traj)           # resolution 3 edges = 0.03
    assert rep3.classification == "brutal"
    rep = initiation_report(traj, resolution=0.05)
    assert rep.classification == "progressive"
    assert rep.t_i == 0.0


def test_zero_speed_manufactured_quadratic():
    t = np.linspace(0, 1, 201)
    h1 = 0.01 * t ** 2
    traj = Trajectory(t, h1, np.zeros_like(t), np.zeros_like(t), np.zeros_like(t),
                      np.zeros_like(t), np.zeros_like(t), [None] * len(t), 2.0,
                      1.0, 1.0, 0.01)
    fit = zero_speed_check(traj)
    assert fit.exponent == pytest.approx(2.0, abs=0.01)
    assert fit.passes


def test_zero_speed_needs_data():
    t = np.linspace(0, 1, 11)
    traj = Trajectory(t, np.zeros_like(t), np.zeros_like(t), np.zeros_like(t),
                      np.zeros_like(t), np.zeros_like(t), np.zeros_like(t),
                      [None] * len(t), 2.0, 1.0, 1.0, 0.01)
    with pytest.raises(InsufficientData):
        zero_speed_check(traj)


def test_meyers_departs_immediately():
    grid = Grid(Domain.unit_square(dirichlet="all", centered=True), 96)
    land = EnergyLandscape(grid, meyers_integrand(3.0, "radial_stiff"),
                           meyers_profile(3.0, "radial_stiff"))
    h = grid.h
    radii = [3 * h, 4.5 * h, 7 * h, 10 * h, 0.15]
    fam = circles_family(grid, (0.0, 0.0), radii)
    members = list(fam)
    lengths = [c.h1() for c in fam]
    rels = [land.bulk() - land.bulk(c) for c in members]
    i0 = int(np.argmin(lengths))
    # calibrate k into the window where the smallest circle both pays off at
    # t = dt and beats every upgrade (release is concave in length, so the
    # window is nonempty)
    steps, horizon = 60, 0.3
    dt = horizon / steps
    upgrade = max((rels[j] - rels[i0]) / (lengths[j] - lengths[i0])
                  for j in range(len(members)) if j != i0)
    k_low = dt ** 2 * upgrade
    k_high = dt ** 2 * rels[i0] / lengths[i0]
    assert k_low < k_high
    k = 0.5 * (k_low + k_high)
    traj = evolve(land, fam, k=k, horizon=horizon, steps=steps)
    rep = initiation_report(traj, resolution=lengths[i0])
    assert rep.t_i == 0.0
    assert rep.classification == "progressive"
    assert traj.h1[1] > 0  # cracked within one time step
    _, ok = energy_balance_residual(traj)
    assert ok.all()


def test_load_horizon_formula_and_scaling():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    integrand = laplace_integrand()
    land = EnergyLandscape(grid, integrand, linear_x)
    hor = load_horizon(land, k=1.0)
    assert hor.t_weighted == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert hor.dirichlet_length == pytest.approx(2.0)
    assert hor.bulk_unit == pytest.approx(1.0, abs=1e-12)
    hor2 = load_horizon(land, k=2.0)
    assert hor2.t_weighted == pytest.approx(math.sqrt(2.0) * 2 ** 0.5, rel=1e-9)


def test_load_horizon_constant_datum_infinite():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 16)
    land = EnergyLandscape(grid, laplace_integrand(), lambda x, y: 4.0)
    hor = load_horizon(land, k=1.0)
    assert math.isinf(hor.t_weighted)
    assert math.isinf(hor.t_unit)


# distinct effective cracks: a union of nested circles is solved as its outer
# circle, so meyers_evolve needs its 5 circles and the empty crack
@pytest.mark.parametrize("name, distinct", [("weak_evolve.ini", 37), ("meyers_evolve.ini", 6)])
def test_evolve_solves_each_crack_once(monkeypatch, name, distinct):
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
    grid = cfg.build_grid()
    land = EnergyLandscape(grid, cfg.build_integrand(), cfg.build_datum(), tol=cfg.tol())
    solved = []
    solve_field = EnergyLandscape.solve_field

    def counting(self, crack=None):
        solved.append((crack or self.empty_crack).edges)
        return solve_field(self, crack)

    monkeypatch.setattr(EnergyLandscape, "solve_field", counting)
    traj = evolve(land, cfg.build_family(grid), cfg.get_float("evolve", "k"),
                  cfg.get_float("evolve", "horizon"), cfg.get_int("evolve", "steps"))
    assert len(set(solved)) == distinct
    assert len(solved) == distinct
    # the stored displacement of a chosen crack is its unit-datum solve
    j = int(np.argmax(traj.h1))
    assert traj.h1[j] > 0
    v = solve_field(land, traj.cracks[j]).values
    assert np.array_equal(traj.displacement(j, land), traj.t[j] * v)

