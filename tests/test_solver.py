import numpy as np
import pytest
import scipy.sparse as sp

from fracturelab.energy import laplace_integrand, meyers_integrand, ppower_integrand
from fracturelab.errors import ConfigError, NoConvergence, SingularSystem
from fracturelab.geometry import Domain, Grid, cut_grid
from fracturelab.solver import (
    _iteration_cap,
    assemble_metric,
    bulk_energy,
    checkerboard_vector,
    field_from_function,
    pcg,
    solve,
    stress,
    total_energy,
)

from conftest import hslit, linear_x, vslit


def test_linear_field_is_exact():
    grid = Grid(Domain.unit_square(), 32)
    field, rep = solve(grid, laplace_integrand(), linear_x)
    x, _ = field.topology.dof_xy()
    assert np.abs(field.values - x).max() < 1e-10
    assert bulk_energy(field) == pytest.approx(1.0, abs=1e-10)
    assert rep.residual <= 1e-10


def test_constant_datum_any_crack():
    grid = Grid(Domain.unit_square(), 16)
    crack = hslit(grid, 4, 8, 5)
    field, _ = solve(grid, laplace_integrand(), lambda x, y: 5.0, crack)
    assert np.abs(field.values - 5.0).max() < 1e-9
    assert bulk_energy(field) == pytest.approx(0.0, abs=1e-15)


def test_full_cut_disconnects_data(lr_domain):
    grid = Grid(lr_domain, 16)
    crack = vslit(grid, 8, 0, 16)
    psi = lambda x, y: (np.asarray(x) > 0.5).astype(float)
    field, _ = solve(grid, laplace_integrand(), psi, crack)
    x, _ = field.topology.dof_xy()
    assert bulk_energy(field) == pytest.approx(0.0, abs=1e-20)
    assert total_energy(field, crack, 1.0) == pytest.approx(1.0)
    left = field.values[x < 0.49]
    assert np.abs(left).max() < 1e-12


def test_stress_of_linear_field():
    grid = Grid(Domain.unit_square(), 32)
    field, _ = solve(grid, laplace_integrand(), linear_x)
    sf = stress(field)
    # solver tolerance 1e-10 on values maps to ~tol/h on gradients
    assert np.allclose(sf.sigma, [2.0, 0.0], atol=1e-8)
    assert sf.div_residual < 1e-8
    assert sf.neumann_residual < 1e-8


def test_stress_of_constant_field():
    grid = Grid(Domain.unit_square(), 16)
    field, _ = solve(grid, laplace_integrand(), lambda x, y: 2.5)
    assert np.abs(stress(field).sigma).max() < 1e-9


def test_meyers_divergence_improves_under_refinement(centered_domain):
    # physical divergence-freeness measured against a fixed smooth bump
    integrand = meyers_integrand(3.0, "radial_stiff")
    from fracturelab.singularity import meyers_profile
    psi = meyers_profile(3.0, "radial_stiff")

    def bump(x, y):
        r2 = (np.asarray(x) ** 2 + np.asarray(y) ** 2) / 0.16
        return np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)

    vals = []
    for n in (64, 128):
        field, _ = solve(Grid(centered_domain, n), integrand, psi)
        vals.append(stress(field).weak_divergence(bump))
    assert vals[1] < vals[0]


def test_energy_of_zero_field_with_crack():
    grid = Grid(Domain.unit_square(), 20)
    crack = hslit(grid, 2, 10, 6)  # length 0.3
    field, _ = solve(grid, laplace_integrand(), lambda x, y: 0.0, crack)
    assert total_energy(field, crack, 2.0) == pytest.approx(0.6)


def test_minimality_against_random_perturbations(lr_domain):
    grid = Grid(lr_domain, 24)
    crack = vslit(grid, 12, 8, 6)
    field, _ = solve(grid, laplace_integrand(), linear_x, crack)
    e0 = bulk_energy(field)
    rng = np.random.default_rng(9)
    free = field.free_dofs()
    for _ in range(50):
        delta = np.zeros_like(field.values)
        delta[free] = rng.standard_normal(len(free))
        for eps in (1e-3, -1e-3):
            assert bulk_energy(field.perturbed(eps * delta)) >= e0 - 1e-12


def test_comparison_principle_ppower_uncut():
    grid = Grid(Domain.unit_square(), 24)
    psi = lambda x, y: 0.3 + 0.5 * np.asarray(x) - 0.2 * np.asarray(y)
    for integrand in (laplace_integrand(), ppower_integrand(1.5, 1.0)):
        field, _ = solve(grid, integrand, psi)
        xb, yb = grid.node_xy(grid.dirichlet_nodes())
        vals = psi(xb, yb)
        assert field.values.min() >= vals.min() - 1e-8
        assert field.values.max() <= vals.max() + 1e-8


def test_bulk_monotone_under_crack_inclusion(lr_domain):
    grid = Grid(lr_domain, 32)
    integrand = laplace_integrand()
    small = vslit(grid, 16, 12, 4)
    large = small.union(vslit(grid, 16, 16, 6))
    e_empty = bulk_energy(solve(grid, integrand, linear_x)[0])
    e_small = bulk_energy(solve(grid, integrand, linear_x, small)[0])
    e_large = bulk_energy(solve(grid, integrand, linear_x, large)[0])
    assert e_small <= e_empty + 1e-12
    assert e_large <= e_small + 1e-12


@pytest.mark.parametrize("p,c", [(2.0, 2.0), (1.5, 1.0)])
def test_p_homogeneous_scaling(p, c, lr_domain):
    grid = Grid(lr_domain, 24)
    integrand = ppower_integrand(p, c)
    crack = vslit(grid, 12, 10, 4)
    base, _ = solve(grid, integrand, linear_x, crack)
    for t in (0.5, 2.0):
        scaled, _ = solve(grid, integrand, lambda x, y, t=t: t * np.asarray(x), crack)
        assert np.abs(scaled.values - t * base.values).max() < 1e-6
        assert bulk_energy(scaled) == pytest.approx(t ** p * bulk_energy(base), rel=1e-8)


def test_singular_system_without_dirichlet():
    dom = Domain(0.0, 0.0, 1.0, 1.0, dirichlet_part=())
    grid = Grid(dom, 8)
    with pytest.raises(SingularSystem):
        solve(grid, laplace_integrand(), linear_x)


def test_floating_component_pinned_to_zero():
    from fracturelab.search import circle_crack
    dom = Domain.unit_square(dirichlet="all")
    grid = Grid(dom, 48)
    crack = circle_crack(grid, (0.5, 0.5), 0.15)
    field, _ = solve(grid, laplace_integrand(), linear_x, crack)
    x, y = field.topology.dof_xy()
    inner = (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.1 ** 2
    assert np.abs(field.values[inner]).max() == 0.0


def test_field_from_function_branches_across_slit():
    dom = Domain.unit_square(dirichlet="all", centered=True)
    grid = Grid(dom, 16)
    slit = hslit(grid, 0, 8, 8)  # from (-0.5, 0) to (0, 0)
    topo = cut_grid(grid, slit)

    def jumpy(x, y):
        return np.sign(np.asarray(y) + 1e-300)

    field = field_from_function(topo, laplace_integrand(), jumpy)
    (a_m, a_p), _ = topo.edge_side_dofs(("h", 2, 8))
    assert field.values[a_p] == 1.0
    assert field.values[a_m] == -1.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_datum_rejected_up_front(bad):
    grid = Grid(Domain.unit_square(), 64)
    with pytest.raises(ConfigError):
        solve(grid, laplace_integrand(), lambda x, y: np.full(np.shape(x), bad))
    # one bad constrained node is enough
    psi = lambda x, y: np.where(np.asarray(y) == 1.0, bad, np.asarray(x, dtype=float))
    with pytest.raises(ConfigError):
        solve(grid, ppower_integrand(1.5), psi)


def test_report_counts_inner_cg_iterations(lr_domain):
    grid = Grid(lr_domain, 64)
    crack = vslit(grid, 32, 16, 16)
    _, rep = solve(grid, laplace_integrand(), linear_x, crack)
    assert rep.method == "cg" and rep.inner_iterations == rep.iterations
    # the aggregation cycle keeps the Newton inner solves short (123 CG
    # iterations here, warm start included); Jacobi PCG needs 1061
    _, rep = solve(grid, ppower_integrand(1.5), linear_x, crack)
    assert rep.method == "newton" and rep.iterations > 1
    assert rep.iterations < rep.inner_iterations <= 250


def test_pcg_cap_follows_the_grid_width():
    # Jacobi CG on a 1D chain needs about n iterations, more than the cap of
    # 64 sqrt(n): the solve stalls and raises at exactly the cap
    n = 8000
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                 format="csr")
    b = np.random.default_rng(0).standard_normal(n)
    assert _iteration_cap(n) == 5725 < n
    with pytest.raises(NoConvergence, match="stalled") as ei:
        pcg(A, b)
    assert ei.value.iterations == _iteration_cap(n)


def test_inconsistent_neumann_system_ends_before_the_cap():
    # no Dirichlet rows and no deflation: b has a part on the null vectors,
    # so CG cannot converge; it breaks down long before 64 sqrt(n) iterations
    grid = Grid(Domain.unit_square(), 64)
    topo = cut_grid(grid)
    K = assemble_metric(topo, np.tile(np.eye(2), (grid.n_cells, 1, 1)))
    n = topo.n_dofs
    Q = np.column_stack([np.ones(n), checkerboard_vector(topo)]) / np.sqrt(n)
    b = np.random.default_rng(0).standard_normal(n)
    b -= Q @ (Q.T @ b)
    b += 1e-6 * np.linalg.norm(b) * Q[:, 0]
    with pytest.raises(NoConvergence) as ei:
        pcg(K, b)
    assert 0 < ei.value.iterations < _iteration_cap(n)
