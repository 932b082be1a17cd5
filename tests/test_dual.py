import numpy as np
import pytest

from fracturelab import solver
from fracturelab.dual import (
    assemble_tau,
    corrector,
    cutoff,
    duality_gap,
    jump_flux_bound,
    member_collar,
    release_bound,
)
from fracturelab.energy import laplace_integrand, ppower_integrand
from fracturelab.errors import (
    CompatibilityViolated,
    NoConvergence,
    ResidualTooLarge,
    UnresolvableCover,
)
from fracturelab.geometry import CrackSet, Cover, Disk, Domain, Grid, cover_crack
from fracturelab.solver import bulk_energy, solve, stress

from conftest import hslit, linear_x, linear_y, vslit


def base_problem(n=128, domain=None):
    dom = domain or Domain.unit_square(dirichlet=("left", "right"))
    grid = Grid(dom, n)
    field, _ = solve(grid, laplace_integrand(), linear_x)
    return grid, field, stress(field)


# --- cutoff ---------------------------------------------------------------


def test_cutoff_single_disk_profile():
    grid = Grid(Domain.unit_square(), 256)
    cover = Cover((Disk(0.5, 0.5, 0.2),), 1.0, 1, 0.5)
    phi = cutoff(cover, grid)
    x, y = grid.node_xy()
    d = np.hypot(x - 0.5, y - 0.5)
    assert np.all(phi.node_values[d <= 0.2] == 0.0)
    assert np.all(phi.node_values[d >= 0.4] == 1.0)
    inside = (phi.node_values > 0) & (phi.node_values < 1)
    assert inside.any()
    assert phi.member_max_grad[0] <= (2.0 / 0.2) * 1.2


def test_cutoff_empty_cover_is_one():
    grid = Grid(Domain.unit_square(), 32)
    phi = cutoff(Cover((), 0.0, 0, 0.5), grid)
    assert np.all(phi.node_values == 1.0)
    assert np.all(phi.cell_values == 1.0)


def test_cutoff_two_members_product():
    grid = Grid(Domain.unit_square(), 128)
    cover = Cover((Disk(0.25, 0.25, 0.05), Disk(0.75, 0.75, 0.05)), 1.0, 1, 0.5)
    phi = cutoff(cover, grid)
    prod = phi.member_node_values[0] * phi.member_node_values[1]
    assert np.allclose(phi.node_values, prod)
    supports = [(v < 1.0) for v in phi.member_node_values]
    assert not np.any(supports[0] & supports[1])


def test_cutoff_unresolvable():
    grid = Grid(Domain.unit_square(), 16)
    with pytest.raises(UnresolvableCover):
        cutoff(Cover((Disk(0.5, 0.5, 2.0 * grid.h),), 1.0, 1, 0.5), grid)


# --- correctors ---------------------------------------------------------------


def test_corrector_zero_stress_gives_zero():
    grid, field, _ = base_problem(64)
    cover = Cover((Disk(0.5, 0.5, 0.1),), 1.0, 1, 0.5)
    phi = cutoff(cover, grid)
    col = member_collar(phi, 0, field)
    corr = corrector(col, np.zeros((grid.n_cells, 2)), phi, col.case)
    assert np.abs(corr.eta).max() == 0.0
    assert corr.energy_ratio == 0.0


def test_corrector_constant_stress_ratio_stable_under_rescaling():
    # constant sigma is divergence free; the collar problem is pure Neumann
    # and the energy ratio must stay bounded as the annulus shrinks
    grid, field, _ = base_problem(256, Domain.unit_square(dirichlet="all"))
    sigma = np.tile([2.0, 0.0], (grid.n_cells, 1))
    ratios = []
    for r in (0.1, 0.05, 0.025):
        cover = Cover((Disk(0.5, 0.5, r),), 1.0, 1, 0.5)
        phi = cutoff(cover, grid)
        col = member_collar(phi, 0, field)
        assert col.case == "interior"
        corr = corrector(col, sigma, phi, "interior")
        assert corr.compat_defect < 1e-6
        ratios.append(corr.energy_ratio)
    ratios = np.asarray(ratios)
    assert ratios.max() < 2.0
    assert ratios.max() / ratios.min() < 1.5  # stable across scales


def test_corrector_case_mismatch():
    grid, field, _ = base_problem(64)
    cover = Cover((Disk(0.5, 0.5, 0.1),), 1.0, 1, 0.5)
    phi = cutoff(cover, grid)
    col = member_collar(phi, 0, field)
    with pytest.raises(ValueError):
        corrector(col, np.zeros((grid.n_cells, 2)), phi, "dirichlet")


def test_corrector_compatibility_violation():
    # a manufactured non-equilibrated stress breaks the Neumann solvability
    grid, field, _ = base_problem(64, Domain.unit_square(dirichlet="all"))
    xc, yc = grid.cell_centers()
    sigma = np.stack([xc - 0.5, yc - 0.5], axis=1)  # div sigma = 2
    cover = Cover((Disk(0.5, 0.5, 0.12),), 1.0, 1, 0.5)
    phi = cutoff(cover, grid)
    col = member_collar(phi, 0, field)
    with pytest.raises(CompatibilityViolated):
        corrector(col, sigma, phi, "interior", compat_tol=1e-8)


# --- assemble_tau / duality gap ---------------------------------------------


def test_assemble_tau_empty_cover_keeps_sigma():
    grid, field, sf = base_problem(64)
    phi = cutoff(Cover((), 0.0, 0, 0.5), grid)
    tau = assemble_tau(sf, phi, [], CrackSet(grid), residual_tol=1e-6)
    assert np.array_equal(tau.tau, sf.sigma)
    # residual equals the base solver residual scale
    assert tau.residual < 1e-8


def test_tau_vanishes_on_member():
    grid, field, sf = base_problem(128)
    crack = vslit(grid, 64, 60, 6)
    rb = release_bound(grid, laplace_integrand(), linear_x, crack, 1,
                       base=(field, sf))
    phi = cutoff(rb.cover, grid)
    xc, yc = grid.cell_centers()
    mem = rb.cover.members[0]
    inner = mem.metric(xc, yc) < 0.8
    tau = phi.cell_values[:, None] * sf.sigma
    assert np.abs(tau[inner]).max() == 0.0


def test_assemble_tau_residual_small_crack_256():
    grid, field, sf = base_problem(256)
    crack = vslit(grid, 128, 122, 13)  # length ~0.05
    rb = release_bound(grid, laplace_integrand(), linear_x, crack, 1,
                       base=(field, sf))
    assert rb.tau_residual <= 1e-8


def test_assemble_tau_residual_threshold():
    grid, field, sf = base_problem(64)
    crack = vslit(grid, 32, 28, 6)
    cover = cover_crack(crack, grid.domain, 1)
    phi = cutoff(cover, grid)
    col = member_collar(phi, 0, field)
    corr = corrector(col, sf.sigma, phi, col.case)
    with pytest.raises(ResidualTooLarge):
        assemble_tau(sf, phi, [corr], crack, residual_tol=1e-18)


def test_duality_gap_zero_for_sigma():
    grid, field, sf = base_problem(64)
    phi = cutoff(Cover((), 0.0, 0, 0.5), grid)
    tau = assemble_tau(sf, phi, [], CrackSet(grid))
    assert duality_gap(tau, sf) == pytest.approx(0.0, abs=1e-20)


def test_duality_gap_is_half_l2_distance_for_laplace():
    grid, field, sf = base_problem(64)

    class FakeTau:
        pass

    rng = np.random.default_rng(8)
    fake = FakeTau()
    fake.tau = sf.sigma + rng.standard_normal(sf.sigma.shape)
    gap = duality_gap(fake, sf)
    direct = 0.5 * grid.h ** 2 * np.sum((fake.tau - sf.sigma) ** 2)
    assert gap == pytest.approx(direct, rel=1e-12)
    assert gap >= 0.0
    # restricted to cells, the gap is the same sum over those cells
    cells = np.arange(0, grid.n_cells, 3)
    part = 0.5 * grid.h ** 2 * np.sum((fake.tau[cells] - sf.sigma[cells]) ** 2)
    assert duality_gap(fake, sf, cells=cells) == pytest.approx(part, rel=1e-12)


# --- release bound -------------------------------------------------------------


def test_release_bound_empty_crack_is_zero():
    grid, field, sf = base_problem(64)
    rb = release_bound(grid, laplace_integrand(), linear_x, CrackSet(grid), 1,
                       base=(field, sf))
    assert rb.bound == 0.0
    assert rb.h1 == 0.0


def test_release_bound_dominates_measured_release():
    grid, field, sf = base_problem(128)
    integrand = laplace_integrand()
    for crack in (vslit(grid, 64, 58, 12), hslit(grid, 30, 64, 8),
                  vslit(grid, 20, 20, 6).union(vslit(grid, 100, 100, 6))):
        m = 2 if len(crack.edges) == 12 and ("v", 20, 20) in crack.edges else 1
        rb = release_bound(grid, integrand, linear_x, crack, m, base=(field, sf))
        cracked, _ = solve(grid, integrand, linear_x, crack)
        release = bulk_energy(field) - bulk_energy(cracked)
        assert release <= rb.bound + 1e-10
        assert rb.bound > 0.0
        assert {mb.member_index for mb in rb.members} == set(range(len(rb.cover.members)))
        for mb in rb.members:
            assert set(mb.holder_terms) == {
                "sigma_q", "eta_q", "eta_sigma_qm1", "eta_qm1_sigma", "sigma_1", "eta_1"
            }


def test_release_bound_superlinear_decay_smooth():
    grid, field, sf = base_problem(256)
    integrand = laplace_integrand()
    lengths = [32, 16, 8, 4]
    h1s, bounds = [], []
    for n in lengths:
        crack = vslit(grid, 128, 128 - n // 2, n)
        rb = release_bound(grid, integrand, linear_x, crack, 1, base=(field, sf))
        h1s.append(rb.h1)
        bounds.append(rb.bound)
    slope = np.polyfit(np.log(h1s), np.log(bounds), 1)[0]
    assert slope >= 1.2
    # bound per unit length decays with l (lengths are listed largest first)
    ratios = np.asarray(bounds) / np.asarray(h1s)
    assert np.all(np.diff(ratios) < 0)


def test_release_bound_no_decay_at_strong_singularity():
    # shrinking circles around the stiff-radial composite's origin: the cover
    # wipes out the concentrated energy, so bound per unit length climbs
    from fracturelab.energy import meyers_integrand
    from fracturelab.search import circle_crack
    from fracturelab.singularity import meyers_profile

    dom = Domain.unit_square(dirichlet="all", centered=True)
    grid = Grid(dom, 256)
    integrand = meyers_integrand(3.0, "radial_stiff")
    psi = meyers_profile(3.0, "radial_stiff")
    field, _ = solve(grid, integrand, psi)
    base = (field, stress(field))
    ratios = []
    # circle length is ~12.5 r, and the covering ball has that radius, so
    # small radii keep the cover below the smallness threshold
    for r in (0.016, 0.011, 0.008):
        crack = circle_crack(grid, (0.0, 0.0), r)
        rb = release_bound(grid, integrand, psi, crack, 1, base=base)
        ratios.append(rb.bound / rb.h1)
    assert all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))


def test_release_bound_p15():
    dom = Domain.unit_square(dirichlet=("left", "right"))
    grid = Grid(dom, 64)
    integrand = ppower_integrand(1.5, 1.0)
    field, _ = solve(grid, integrand, linear_x)
    sf = stress(field)
    crack = vslit(grid, 32, 30, 4)
    rb = release_bound(grid, integrand, linear_x, crack, 1, base=(field, sf))
    cracked, _ = solve(grid, integrand, linear_x, crack)
    release = bulk_energy(field) - bulk_energy(cracked)
    assert release <= rb.bound + 1e-10


# --- jump flux bound -----------------------------------------------------------


def test_jump_flux_empty_crack():
    grid, field, sf = base_problem(64)
    empty = CrackSet(grid)
    fld, _ = solve(grid, laplace_integrand(), linear_x, empty)
    assert jump_flux_bound(sf, fld, empty) == 0.0


def test_jump_flux_zero_when_stress_parallel():
    # psi = x gives sigma = (2, 0); a horizontal crack has normal (0, 1)
    grid, field, sf = base_problem(64)
    crack = hslit(grid, 28, 32, 8)
    fld, _ = solve(grid, laplace_integrand(), linear_x, crack)
    assert abs(jump_flux_bound(sf, fld, crack)) < 1e-8


def test_jump_flux_dominates_release():
    dom = Domain.unit_square(dirichlet=("bottom", "top"))
    grid = Grid(dom, 128)
    integrand = laplace_integrand()
    field, _ = solve(grid, integrand, linear_y)
    sf = stress(field)
    crack = hslit(grid, 58, 64, 12)
    fld, _ = solve(grid, integrand, linear_y, crack)
    release = bulk_energy(field) - bulk_energy(fld)
    jf = jump_flux_bound(sf, fld, crack)
    assert release > 0
    assert jf >= release - 1e-9 * (1 + abs(release))


def test_corrector_reports_inner_cg_iterations():
    # the collar Newton's CG work, its warm start included, is counted apart
    # from its Newton steps
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    integrand = ppower_integrand(1.5, 1.0)
    field, _ = solve(grid, integrand, linear_x)
    phi = cutoff(Cover((Disk(0.5, 0.5, 0.1),), 1.0, 1, 0.5), grid)
    col = member_collar(phi, 0, field)
    assert col.case == "interior"
    corr = corrector(col, stress(field).sigma, phi, "interior", p=1.5)
    assert corr.inner_iterations > corr.iterations >= 1
    lap = corrector(col, stress(field).sigma, phi, "interior")
    assert lap.inner_iterations == lap.iterations > 0


# Reference collar energy ratios, Newton steps and p = 1.5 release bounds,
# computed while the collar problem had a Newton loop of its own with its own
# energy formula: the shared loop must reproduce them.
@pytest.mark.parametrize("p, disk, case, ratio, steps", [
    (1.5, Disk(0.5, 0.5, 0.1), "interior", 0.8881474368130322, 15),
    (1.5, Disk(0.5, 0.9, 0.1), "neumann", 2.2232091137491166, 55),
    (3.0, Disk(0.5, 0.5, 0.1), "interior", 0.7612790078073088, 6),
    (3.0, Disk(0.5, 0.9, 0.1), "neumann", 1.0605498586681528, 7),
])
def test_collar_newton_keeps_its_ratios_and_steps(p, disk, case, ratio, steps):
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    field, _ = solve(grid, ppower_integrand(p), linear_x)
    phi = cutoff(Cover((disk,), 1.0, 1, 0.5), grid)
    col = member_collar(phi, 0, field)
    assert col.case == case
    corr = corrector(col, stress(field).sigma, phi, case, p=p)
    assert corr.energy_ratio == pytest.approx(ratio, rel=1e-12)
    assert abs(corr.iterations - steps) <= 1


def test_release_bound_p15_ladder_keeps_its_values():
    # p = 1.5 to 1e-12; Laplace (Jacobi CG in the collar) and p = 3 bit for bit
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    for integrand, rel, ladder in (
            (ppower_integrand(1.5), 1e-12, ((12, 0.5222042892809189), (6, 0.11392375252555159),
                                            (3, 0.04715282483418404))),
            (laplace_integrand(), 0.0, ((12, 0.5392250219455613), (6, 0.12087522969036396),
                                        (3, 0.05069862283514186))),
            (ppower_integrand(3.0), 0.0, ((12, 0.19197733472124656), (6, 0.04346069714474336),
                                          (3, 0.01819472109073889)))):
        field, _ = solve(grid, integrand, linear_x)
        base = (field, stress(field))
        for n, bound in ladder:
            rb = release_bound(grid, integrand, linear_x, vslit(grid, 32, 32 - n // 2, n), 1,
                               base=base)
            assert abs(rb.bound - bound) <= rel * bound


def test_bulk_and_collar_newton_fail_alike_at_the_step_cap(monkeypatch):
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    integrand = ppower_integrand(1.5)
    field, _ = solve(grid, integrand, linear_x)
    phi = cutoff(Cover((Disk(0.5, 0.5, 0.1),), 1.0, 1, 0.5), grid)
    col = member_collar(phi, 0, field)
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence) as bulk:
        solve(grid, integrand, linear_x, vslit(grid, 32, 16, 16))
    with pytest.raises(NoConvergence) as collar:
        corrector(col, stress(field).sigma, phi, "interior", p=1.5)
    for err in (bulk.value, collar.value):
        assert err.iterations == 1 and np.isfinite(err.residual)
