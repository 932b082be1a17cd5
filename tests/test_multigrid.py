"""The aggregation V-cycle that preconditions the Newton inner solves.

``pcg(..., nodes=(i, j))`` builds the cycle from the matrix it solves; the
checks here are the properties CG needs from it (symmetry, positivity,
parity-pure aggregates that respect cuts) and agreement with the Jacobi
path on the same problems.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from fracturelab import solver
from fracturelab.dual import _collar_null_vectors, cutoff, member_collar
from fracturelab.energy import laplace_integrand, meyers_integrand, ppower_integrand
from fracturelab.errors import NoConvergence
from fracturelab.geometry import Cover, Disk, Domain, Grid, cut_grid
from fracturelab.search import EnergyLandscape
from fracturelab.solver import (
    _AggregationCycle,
    assemble_metric,
    cell_gradients,
    pcg,
    solve,
)

from conftest import hslit, linear_x, vslit


def p15_hessian_system(grid, crack, every_dof=False):
    """Free-free Newton Hessian of the p = 1.5 energy at the Laplace field;
    over every dof, a pure-Neumann system, when every_dof."""
    field, _ = solve(grid, laplace_integrand(), linear_x, crack)
    topo = field.topology
    g = cell_gradients(topo, field.values)
    p = 1.5
    r2 = 1e-16 + np.sum(g * g, axis=1)
    H = np.zeros((grid.n_cells, 2, 2))
    H[:, 0, 0] = H[:, 1, 1] = r2 ** ((p - 2.0) / 2.0)
    H += ((p - 2.0) * r2 ** ((p - 4.0) / 2.0))[:, None, None] * (
        g[:, :, None] * g[:, None, :])
    free = np.arange(topo.n_dofs) if every_dof else field.free_dofs()
    A = assemble_metric(topo, H)[free][:, free]
    return topo, free, A, grid.node_ij(topo.dof_node[free])


def test_cycle_is_symmetric_positive_definite():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    _, _, A, nodes = p15_hessian_system(grid, vslit(grid, 32, 16, 16))
    i, j = nodes
    parity = (i + j) % 2
    C = A.tocoo()
    assert np.any(parity[C.row] != parity[C.col])
    cycle = _AggregationCycle(A, nodes)
    assert len(cycle.levels) >= 2
    rng = np.random.default_rng(5)
    for _ in range(3):
        u, v = rng.standard_normal((2, A.shape[0]))
        Mu, Mv = cycle(u), cycle(v)
        scale = np.linalg.norm(u) * np.linalg.norm(Mv)
        assert abs(u @ Mv - v @ Mu) <= 1e-12 * scale
        assert u @ Mu > 0 and v @ Mv > 0


def test_aggregates_hold_one_parity_and_respect_a_full_cut():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    topo, free, A, nodes = p15_hessian_system(grid, vslit(grid, 32, 0, 64))
    _, side = topo.dof_components()
    side = side[free]
    assert len(np.unique(side)) == 2
    i, j = nodes
    parity = (i + j) % 2
    cycle = _AggregationCycle(A, nodes)
    label = np.arange(A.shape[0])
    for _, _, agg, nc in cycle.levels:
        label = agg[label]
        for member in (parity, side):
            lo = np.full(nc, 2)
            hi = np.full(nc, -1)
            np.minimum.at(lo, label, member)
            np.maximum.at(hi, label, member)
            assert np.array_equal(lo, hi)


def test_deflated_cycle_pcg_on_neumann_collar_matches_lstsq():
    grid = Grid(Domain.unit_square(dirichlet="all"), 64)
    field, _ = solve(grid, laplace_integrand(), linear_x)
    phi = cutoff(Cover((Disk(0.5, 0.5, 0.1),), 1.0, 1, 0.5), grid)
    collar = member_collar(phi, 0, field)
    assert collar.case == "interior"
    topo = field.topology
    unknowns = collar.nodes
    assert len(unknowns) > 300  # the cycle has a level above the dense one
    K = assemble_metric(topo, np.tile(np.eye(2), (len(collar.cells), 1, 1)),
                        cells=collar.cells)[unknowns][:, unknowns]
    deflate = _collar_null_vectors(topo, collar, unknowns)
    nodes = grid.node_ij(topo.dof_node[unknowns])
    b = np.random.default_rng(3).standard_normal(len(unknowns))
    Q = np.column_stack(deflate)
    b -= Q @ (Q.T @ b)
    x, iters, res = pcg(K, b, tol=1e-12, deflate=deflate, nodes=nodes)
    _, jacobi_iters, _ = pcg(K, b, tol=1e-12, deflate=deflate)
    ref = np.linalg.lstsq(K.toarray(), b, rcond=None)[0]
    assert 0 < iters < jacobi_iters and res <= 1e-12
    assert np.abs(Q.T @ x).max() < 1e-12
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_radial_stiff_converges_within_100_iterations():
    # anisotropy 9:1 turning with the angle: a fixed 2/3 Jacobi damping
    # diverges here, the Gershgorin-scaled one does not
    grid = Grid(Domain.unit_square(dirichlet="all", centered=True), 128)
    topo = cut_grid(grid)
    xc, yc = grid.cell_centers()
    K = assemble_metric(topo, meyers_integrand(3.0, "radial_stiff").cell_metric(xc, yc))
    free = np.setdiff1d(np.arange(topo.n_dofs), grid.dirichlet_nodes())
    u = np.zeros(topo.n_dofs)
    u[grid.dirichlet_nodes()] = grid.node_xy(grid.dirichlet_nodes())[0]
    b = -(K @ u)[free]
    nodes = grid.node_ij(topo.dof_node[free])
    _, iters, res = pcg(K[free][:, free], b, tol=1e-10, nodes=nodes)
    assert iters <= 100 and res <= 1e-10


def test_system_below_coarse_size_is_solved_in_one_iteration():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 12)
    _, _, A, nodes = p15_hessian_system(grid, vslit(grid, 6, 3, 4))
    assert A.shape[0] <= 300
    assert _AggregationCycle(A, nodes).levels == []
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    x, iters, res = pcg(A, b, tol=1e-10, nodes=nodes)
    assert iters == 1 and res <= 1e-10


def test_indefinite_system_raises_under_the_cycle():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NoConvergence):
        pcg(A, np.array([0.0, 1.0]), nodes=(np.array([0, 1]), np.array([0, 0])))


def test_newton_with_cycle_matches_jacobi_newton(monkeypatch):
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    crack = vslit(grid, 32, 16, 16)
    integrand = ppower_integrand(1.5)
    field, rep = solve(grid, integrand, linear_x, crack)

    jacobi_pcg = solver.pcg
    monkeypatch.setattr(solver, "pcg", lambda *a, nodes=None, **k: jacobi_pcg(*a, **k))
    ref_field, ref = solve(grid, integrand, linear_x, crack)
    assert rep.iterations == ref.iterations
    assert abs(rep.bulk_energy - ref.bulk_energy) <= 1e-12 * abs(ref.bulk_energy)
    assert rep.inner_iterations < ref.inner_iterations


def strip_system(grid, row):
    """Free-free Laplace stiffness of a full cut at `row`, with its rhs."""
    field, _ = solve(grid, laplace_integrand(), linear_x, hslit(grid, 0, row, grid.nx))
    topo = field.topology
    xc, yc = grid.cell_centers()
    K = assemble_metric(topo, laplace_integrand().cell_metric(xc, yc))
    free = field.free_dofs()
    u = field.values.copy()
    u[free] = 0.0
    return K[free][:, free], -(K @ u)[free], grid.node_ij(topo.dof_node[free])


def test_cycle_deflates_a_floating_parity_chain(lr_domain):
    # a full cut one row below the Neumann top side releases the datum on
    # its nodes; in the one-cell strip above it each parity couples only to
    # itself, and the chain of one parity meets no datum: A is singular
    grid = Grid(lr_domain, 32)
    A, b, nodes = strip_system(grid, 31)
    cycle = _AggregationCycle(A, nodes)
    assert cycle.null is not None and cycle.null.shape[1] == 1
    v = cycle.null[:, 0]
    i, j = nodes
    chain = v != 0
    assert np.all(j[chain] >= 31) and len(np.unique((i + j)[chain] % 2)) == 1
    assert np.linalg.norm(A @ v) <= 1e-12 * abs(A).max()
    x, _, res = pcg(A, b, nodes=nodes)
    assert res <= 1e-10 and abs(x @ v) <= 1e-12
    with pytest.raises(NoConvergence, match="floating"):
        pcg(A, b + 1e-3 * np.linalg.norm(b) * v, nodes=nodes)
    # anchored systems find nothing to deflate
    A, _, nodes = strip_system(grid, 16)
    assert _AggregationCycle(A, nodes).null is None


def test_cycle_deflates_a_pure_neumann_hessian_with_cross_parity_couplings():
    # no datum anywhere: the constant and the checkerboard are both null,
    # so the cycle deflates the even and the odd indicator
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    _, _, A, nodes = p15_hessian_system(grid, vslit(grid, 16, 8, 16), every_dof=True)
    cycle = _AggregationCycle(A, nodes)
    assert cycle.null is not None and cycle.null.shape[1] == 2
    Q = cycle.null
    assert np.abs(Q.T @ Q - np.eye(2)).max() < 1e-12
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    b -= Q @ (Q.T @ b)
    x, _, res = pcg(A, b, tol=1e-12, nodes=nodes)
    ref = np.linalg.lstsq(A.toarray(), b, rcond=None)[0]
    assert res <= 1e-12
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("p, row, bulk", [(1.5, 31, 0.6572673715569897),
                                          (3.0, 1, 0.3259794062864042)])
def test_newton_solves_a_strip_with_a_floating_parity_chain(lr_domain, p, row, bulk):
    # the isotropic warm start of the Newton solve is singular on the strip;
    # the reference energies are those of the Jacobi-CG warm start, the
    # Newton steps and CG iterations those of the cycle
    grid = Grid(lr_domain, 32)
    _, rep = solve(grid, ppower_integrand(p), linear_x, hslit(grid, 0, row, 32))
    assert rep.bulk_energy == pytest.approx(bulk, rel=1e-10)
    assert (rep.iterations, rep.inner_iterations) == {1.5: (3, 52), 3.0: (3, 50)}[p]


def test_landscape_solves_a_strip_with_a_floating_parity_chain(lr_domain):
    grid = Grid(lr_domain, 32)
    crack = hslit(grid, 0, 31, 32)
    integrand = ppower_integrand(2.0)
    _, rep = solve(grid, integrand, linear_x, crack)
    assert rep.bulk_energy == 0.49142295780248824
    landscape = EnergyLandscape(grid, integrand, linear_x)
    assert landscape.bulk(crack) == pytest.approx(rep.bulk_energy, rel=1e-12)
