"""The stiffness kernel and Jacobi PCG against reference formulations.

``einsum_stiffness`` is the element-by-element formulation h^2 G^T M G with
the full 4x4 block per cell; the parity-split assembly must reproduce it on
cracked topologies to rounding.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from fracturelab.dual import _collar_null_vectors, cutoff, member_collar
from fracturelab.energy import (
    CheckerboardCoefficient,
    laplace_integrand,
    meyers_integrand,
    ppower_integrand,
)
from fracturelab.errors import NoConvergence
from fracturelab.geometry import CrackSet, Cover, Disk, Domain, Grid, cut_grid
from fracturelab.solver import (
    _element_values,
    _free_block,
    assemble_metric,
    cell_gradients,
    pcg,
    solve,
)

from conftest import hslit, linear_x, vslit

_AX = np.array([-1.0, 1.0, -1.0, 1.0])
_AY = np.array([-1.0, -1.0, 1.0, 1.0])


def einsum_stiffness(topology, metric_cells, cells=None):
    cd = topology.cell_dofs if cells is None else topology.cell_dofs[cells]
    M = np.asarray(metric_cells)
    G = np.stack([_AX, _AY]) / (2.0 * topology.grid.h)
    kloc = topology.grid.h ** 2 * np.einsum("cab,ai,bj->cij", M, G, G)
    rows = np.repeat(cd, 4, axis=1).ravel()
    cols = np.tile(cd, (1, 4)).ravel()
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)),
                      shape=(topology.n_dofs, topology.n_dofs))
    return K.tocsr()


def kinked_crack(grid):
    """Horizontal run from the left side turning up: splits and tips."""
    n = grid.nx
    edges = [("h", i, n // 2) for i in range(n // 3)]
    edges += [("v", n // 3, n // 2 + k) for k in range(n // 6)]
    return CrackSet(grid, edges)


def cracked_topologies(grid):
    n = grid.nx
    return [cut_grid(grid, hslit(grid, n // 4, n // 2, n // 2)),
            cut_grid(grid, vslit(grid, n // 2, 0, n // 3)),
            cut_grid(grid, kinked_crack(grid))]


def assert_matches_reference(topology, M, cells=None):
    K = assemble_metric(topology, M, cells=cells)
    R = einsum_stiffness(topology, M, cells=cells)
    assert K.shape == R.shape
    scale = abs(R).max()
    assert abs(K - R).max() <= 1e-13 * scale
    return K


def couples_same_parity_only(topology, K):
    i, j = topology.grid.node_ij(topology.dof_node)
    parity = (i + j) % 2
    C = K.tocoo()
    return bool(np.all(parity[C.row] == parity[C.col]))


def test_laplace_matches_reference_and_stores_one_parity_per_row():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    xc, yc = grid.cell_centers()
    M = laplace_integrand().cell_metric(xc, yc)
    for topo in cracked_topologies(grid):
        assert topo.n_duplicates > 0
        K = assert_matches_reference(topo, M)
        assert couples_same_parity_only(topo, K)
        assert np.diff(K.indptr).max() <= 5


def test_checkerboard_coefficient_matches_reference_at_48():
    grid = Grid(Domain.unit_square(), 48)
    integrand = ppower_integrand(2.0, CheckerboardCoefficient(1.0, 10.0, 1.0 / 6.0))
    xc, yc = grid.cell_centers()
    M = integrand.cell_metric(xc, yc)
    for topo in cracked_topologies(grid):
        K = assert_matches_reference(topo, M)
        assert couples_same_parity_only(topo, K)


def test_radial_stiff_matches_reference():
    grid = Grid(Domain.unit_square(centered=True), 32)
    xc, yc = grid.cell_centers()
    M = meyers_integrand(3.0, "radial_stiff").cell_metric(xc, yc)
    assert np.mean(M[:, 0, 0] != M[:, 1, 1]) > 0.9
    for topo in cracked_topologies(grid):
        K = assert_matches_reference(topo, M)
        assert not couples_same_parity_only(topo, K)


def test_newton_hessian_p15_matches_reference():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    p = 1.5
    for topo in cracked_topologies(grid):
        field, _ = solve(grid, laplace_integrand(), linear_x, topo.crack)
        g = cell_gradients(topo, field.values)
        r2 = 1e-16 + np.sum(g * g, axis=1)
        H = np.zeros((grid.n_cells, 2, 2))
        H[:, 0, 0] = H[:, 1, 1] = r2 ** ((p - 2.0) / 2.0)
        H += ((p - 2.0) * r2 ** ((p - 4.0) / 2.0))[:, None, None] * (
            g[:, :, None] * g[:, None, :])
        assert_matches_reference(topo, H)


def test_cell_subset_matches_reference():
    grid = Grid(Domain.unit_square(), 32)
    topo = cut_grid(grid, hslit(grid, 8, 16, 16))
    cells = np.arange(grid.n_cells)[::3]
    xc, yc = grid.cell_centers()
    M = meyers_integrand(3.0, "radial_stiff").cell_metric(xc - 0.5, yc - 0.5)[cells]
    assert_matches_reference(topo, M, cells=cells)
    assert_matches_reference(topo, np.tile(np.eye(2), (len(cells), 1, 1)), cells=cells)


@pytest.mark.parametrize("on", ["all cells", "every third cell"])
def test_free_block_matches_the_sliced_assembly(on):
    # the Newton Hessians' pattern is built once and refilled per step; it
    # must hold what slicing the assembled stiffness gives, for isotropic
    # metrics (whose cross-parity slots hold zeros) and anisotropic ones
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    xc, yc = grid.cell_centers()
    cells = None if on == "all cells" else np.arange(grid.n_cells)[::3]
    metrics = [laplace_integrand().cell_metric(xc, yc),
               meyers_integrand(3.0, "radial_stiff").cell_metric(xc - 0.5, yc - 0.5)]
    if cells is not None:
        metrics = [M[cells] for M in metrics]
    for topo in cracked_topologies(grid):
        assert topo.n_duplicates > 0
        free = np.setdiff1d(np.arange(topo.n_dofs), topo.constrained_dofs())
        assert 0 < len(free) < topo.n_dofs
        block = _free_block(topo, free, cells)
        for M in metrics:
            K = assemble_metric(topo, M, cells=cells)[free][:, free].toarray()
            B = block(_element_values(M))
            assert B.shape == K.shape
            assert np.abs(B.toarray() - K).max() <= 1e-15 * np.abs(K).max()


def test_deflated_pcg_on_neumann_collar_matches_lstsq():
    grid = Grid(Domain.unit_square(dirichlet="all"), 32)
    field, _ = solve(grid, laplace_integrand(), linear_x)
    phi = cutoff(Cover((Disk(0.5, 0.5, 0.2),), 1.0, 1, 0.5), grid)
    collar = member_collar(phi, 0, field)
    assert collar.case == "interior"
    topo = field.topology
    unknowns = collar.nodes
    K = assemble_metric(topo, np.tile(np.eye(2), (len(collar.cells), 1, 1)),
                        cells=collar.cells)[unknowns][:, unknowns]
    deflate = _collar_null_vectors(topo, collar, unknowns)
    dense = K.toarray()
    # the deflated vectors span the whole null space
    assert np.sum(np.linalg.eigvalsh(dense) < 1e-10) == len(deflate)
    b = np.random.default_rng(3).standard_normal(len(unknowns))
    Q = np.column_stack(deflate)
    b -= Q @ (Q.T @ b)
    x, iters, res = pcg(K, b, tol=1e-12, deflate=deflate)
    ref = np.linalg.lstsq(dense, b, rcond=None)[0]
    assert iters > 0 and res <= 1e-12
    assert np.abs(Q.T @ x).max() < 1e-12
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_pcg_breakdown_raises_at_once():
    # indefinite: p.Ap < 0 on the first step
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NoConvergence) as info:
        pcg(A, np.array([0.0, 1.0]))
    assert info.value.iterations == 1
    # non-finite data never starts the iteration
    A = sp.csr_matrix(np.diag([2.0, 2.0]))
    with pytest.raises(NoConvergence) as info:
        pcg(A, np.array([np.inf, 1.0]))
    assert info.value.iterations == 0
    # a NaN in the operator is caught on the first step
    A = sp.csr_matrix(np.array([[2.0, np.nan], [np.nan, 2.0]]))
    with pytest.raises(NoConvergence) as info:
        pcg(A, np.array([1.0, 1.0]))
    assert info.value.iterations == 1
