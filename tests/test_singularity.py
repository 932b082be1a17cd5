import math

import numpy as np
import pytest

from fracturelab.energy import laplace_integrand, meyers_integrand
from fracturelab.errors import DegenerateFit, InvalidProbe, RadiusUnresolvable
from fracturelab.geometry import CrackSet, Domain, Grid, cut_grid
from fracturelab.singularity import (
    classify,
    default_radii,
    fit_exponent,
    local_energy,
    meyers_gamma,
    meyers_profile,
    meyers_reference,
)
from fracturelab.solver import field_from_function, solve

from conftest import hslit, linear_x


def analytic_field(grid, fn, crack=None):
    topo = cut_grid(grid, crack or CrackSet(grid))
    return field_from_function(topo, laplace_integrand(), fn)


def test_local_energy_of_linear_field():
    grid = Grid(Domain.unit_square(), 256)
    field = analytic_field(grid, linear_x)  # |grad u|^2 = 1
    e = local_energy(field, (0.5, 0.5), 0.2)
    assert e == pytest.approx(math.pi * 0.04, rel=0.03)


def test_local_energy_constant_field():
    grid = Grid(Domain.unit_square(), 64)
    field = analytic_field(grid, lambda x, y: np.full_like(np.asarray(x, float), 3.0))
    assert local_energy(field, (0.5, 0.5), 0.1) == 0.0


def test_local_energy_crack_tip_reference():
    # u = sqrt(r) cos(theta/2) on a slit grid: |grad u|^2 = 1/(4r), so the
    # ball integral is (pi/2) r
    dom = Domain.unit_square(dirichlet="all", centered=True)
    grid = Grid(dom, 256)
    slit = hslit(grid, 0, 128, 128)  # y = 0, x in [-0.5, 0]

    def tip(x, y):
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        return np.sqrt(np.maximum(r, 1e-300)) * np.cos(0.5 * th)

    field = analytic_field(grid, tip, slit)
    r = 0.2
    assert local_energy(field, (0.0, 0.0), r) == pytest.approx(0.5 * math.pi * r, rel=0.05)


def test_local_energy_monotone_and_additive():
    grid = Grid(Domain.unit_square(), 128)
    field = analytic_field(grid, lambda x, y: np.asarray(x) ** 2 - np.asarray(y) ** 2)
    radii = [0.05, 0.1, 0.2]
    es = [local_energy(field, (0.5, 0.5), r) for r in radii]
    assert es[0] <= es[1] <= es[2]
    # disjoint balls add up
    a = local_energy(field, (0.25, 0.25), 0.08)
    b = local_energy(field, (0.75, 0.75), 0.08)
    both_cells = a + b
    assert both_cells == pytest.approx(
        local_energy(field, (0.25, 0.25), 0.08) + local_energy(field, (0.75, 0.75), 0.08)
    )


def test_fit_exponent_area_scaling():
    grid = Grid(Domain.unit_square(), 256)
    field = analytic_field(grid, linear_x)
    alpha, C = fit_exponent(field, (0.5, 0.5), default_radii(field, (0.5, 0.5)))
    assert alpha == pytest.approx(2.0, abs=0.05)
    assert C == pytest.approx(math.pi, rel=0.1)


def test_fit_exponent_crack_tip():
    dom = Domain.unit_square(dirichlet="all", centered=True)
    grid = Grid(dom, 256)
    slit = hslit(grid, 0, 128, 128)

    def tip(x, y):
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        return np.sqrt(np.maximum(r, 1e-300)) * np.cos(0.5 * th)

    field = analytic_field(grid, tip, slit)
    alpha, _ = fit_exponent(field, (0.0, 0.0), default_radii(field, (0.0, 0.0)))
    assert alpha == pytest.approx(1.0, abs=0.05)


def test_fit_exponent_recovers_manufactured_power():
    # u = r^g cos(theta) has local energy ~ r^(2g) exactly
    dom = Domain.unit_square(dirichlet="all", centered=True)
    grid = Grid(dom, 256)
    g = 0.75

    def ug(x, y):
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        return np.where(r == 0, 0.0, r ** g * np.cos(th))

    field = analytic_field(grid, ug)
    alpha, _ = fit_exponent(field, (0.0, 0.0), default_radii(field, (0.0, 0.0)))
    assert alpha == pytest.approx(2 * g, abs=0.02)


def test_classify_smooth_field_weak_everywhere():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 128)
    field, _ = solve(grid, laplace_integrand(), linear_x)
    rng = np.random.default_rng(4)
    probes = [(x, y) for x, y in zip(rng.uniform(0.35, 0.65, 10),
                                     rng.uniform(0.35, 0.65, 10))]
    rep = classify(field, probes)
    assert rep.classes() == ["weak"] * 10


def test_classify_meyers_strong_at_origin_weak_far(centered_domain):
    grid = Grid(centered_domain, 128)
    field, _ = solve(grid, meyers_integrand(3.0, "radial_stiff"),
                     meyers_profile(3.0, "radial_stiff"))
    rep = classify(field, [(0.0, 0.0), (0.3, 0.3)])
    assert rep.probes[0].classification == "strong"
    assert rep.probes[1].classification == "weak"
    assert rep.probes[0].alpha == pytest.approx(2.0 / 3.0, abs=0.1)


def test_classify_computes_each_local_energy_once(monkeypatch):
    import fracturelab.singularity as singularity

    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 128)
    field = analytic_field(grid, lambda x, y: np.asarray(x, float) ** 2)
    calls = []

    def counting(fld, x, r):
        calls.append((tuple(x), r))
        return local_energy(fld, x, r)

    monkeypatch.setattr(singularity, "local_energy", counting)
    probes = [(0.5, 0.5), (0.4, 0.6)]
    rep = classify(field, probes)
    for probe, pr in zip(probes, rep.probes):
        radii = default_radii(field, probe)
        assert sorted(r for x, r in calls if x == probe) == sorted(radii)
        assert pr.radii == sorted(radii, reverse=True)
        assert pr.energies == [local_energy(field, probe, r) for r in pr.radii]


def test_meyers_gamma_orientations():
    assert meyers_gamma(3.0, "radial_stiff") == pytest.approx(1.0 / 3.0)
    assert meyers_gamma(3.0, "radial_soft") == pytest.approx(3.0)
    assert meyers_gamma(1.0, "radial_stiff") == pytest.approx(1.0)
    # K = 2 is the critical threshold: exponent 2 gamma = 1
    assert 2 * meyers_gamma(2.0, "radial_stiff") == pytest.approx(1.0)


def test_meyers_reference_identity_case():
    r = 0.3
    assert meyers_reference(1.0, "radial_stiff", r) == pytest.approx(math.pi * r * r)


def test_meyers_reference_against_quadrature():
    # 2-D polar quadrature of |grad (r^g cos th)|^2 over the disk; the radial
    # integrand r^(2g-1) is integrably singular, so integrate on a log-radial
    # grid (substitution rho = log r makes it a smooth exponential)
    for K, orientation in ((3.0, "radial_stiff"), (2.0, "radial_stiff"),
                           (1.5, "radial_soft")):
        g = meyers_gamma(K, orientation)
        R = 0.4
        rho = np.linspace(math.log(1e-8), math.log(R), 4000)
        th = np.linspace(0, 2 * math.pi, 800)
        angular = np.trapezoid(g * g * np.cos(th) ** 2 + np.sin(th) ** 2, th)
        radial = np.trapezoid(np.exp(2 * g * rho), rho)  # int r^(2g-1) dr
        quad = angular * radial
        assert meyers_reference(K, orientation, R) == pytest.approx(quad, rel=1e-3)


def test_probe_errors():
    grid = Grid(Domain.unit_square(), 64)
    field = analytic_field(grid, linear_x)
    with pytest.raises(InvalidProbe):
        local_energy(field, (2.0, 0.5), 0.1)
    with pytest.raises(RadiusUnresolvable):
        local_energy(field, (0.5, 0.5), 1.5 * grid.h)
    with pytest.raises(RadiusUnresolvable):
        fit_exponent(field, (0.5, 0.5), [0.2, 0.1, 0.05])  # only 3 radii
    zero = analytic_field(grid, lambda x, y: np.zeros_like(np.asarray(x, float)))
    with pytest.raises(DegenerateFit):
        fit_exponent(zero, (0.5, 0.5), [0.2, 0.1, 0.08, 0.06])
