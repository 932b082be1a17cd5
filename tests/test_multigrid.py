"""The aggregation V-cycle that preconditions the Newton inner solves.

``pcg(..., cycle=partial(_AggregationCycle, nodes=(i, j)))`` builds the cycle
from the matrix it solves; the checks here are the properties CG needs from
it (symmetry, positivity, parity-pure aggregates that respect cuts) and
agreement with the Jacobi path on the same problems.
"""

from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from fracturelab import solver
from fracturelab.dual import _collar_null_vectors, cutoff, member_collar, release_bound
from fracturelab.energy import laplace_integrand, meyers_integrand, ppower_integrand
from fracturelab.errors import NoConvergence
from fracturelab.geometry import CrackSet, Cover, Disk, Domain, Grid, cut_grid
from fracturelab.search import EnergyLandscape
from fracturelab.singularity import meyers_profile
from fracturelab.solver import (
    _STRONG,
    _AggregationCycle,
    ScalarField,
    _Uncracked,
    _aggregates,
    _dirichlet_setup,
    _entry_rows,
    assemble_metric,
    bulk_energy,
    cell_gradients,
    pcg,
    solve,
)

from conftest import hslit, linear_x, random_union, vslit


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
    side = np.zeros(topo.n_dofs, dtype=int)
    side[topo.cell_dofs[grid.cell_ij(np.arange(grid.n_cells))[0] >= 32]] = 1
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
    x, iters, res = pcg(K, b, tol=1e-12, deflate=deflate,
                         cycle=partial(_AggregationCycle, nodes=nodes))
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
    _, iters, res = pcg(K[free][:, free], b, tol=1e-10,
                        cycle=partial(_AggregationCycle, nodes=nodes))
    assert iters <= 100 and res <= 1e-10


def test_system_below_coarse_size_is_solved_in_one_iteration():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 12)
    _, _, A, nodes = p15_hessian_system(grid, vslit(grid, 6, 3, 4))
    assert A.shape[0] <= 300
    assert _AggregationCycle(A, nodes).levels == []
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    x, iters, res = pcg(A, b, tol=1e-10, cycle=partial(_AggregationCycle, nodes=nodes))
    assert iters == 1 and res <= 1e-10


def test_coarse_factor_packing_keeps_the_row_major_upper_triangle():
    # the cycle packs its coarse operator by a mask in place of np.triu_indices
    rng = np.random.default_rng(3)
    for n in range(1, 301):
        dense = rng.standard_normal((n, n))
        assert np.array_equal(dense[~np.tri(n, k=-1, dtype=bool)], dense[np.triu_indices(n)])


def test_indefinite_system_raises_under_the_cycle():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NoConvergence):
        pcg(A, np.array([0.0, 1.0]),
            cycle=partial(_AggregationCycle, nodes=(np.array([0, 1]), np.array([0, 0]))))


def test_newton_with_cycle_matches_jacobi_newton(monkeypatch):
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    crack = vslit(grid, 32, 16, 16)
    integrand = ppower_integrand(1.5)
    field, rep = solve(grid, integrand, linear_x, crack)

    jacobi_pcg = solver.pcg
    monkeypatch.setattr(solver, "pcg", lambda *a, cycle=None, **k: jacobi_pcg(*a, **k))
    ref_field, ref = solve(grid, integrand, linear_x, crack)
    assert rep.iterations == ref.iterations
    assert abs(rep.bulk_energy - ref.bulk_energy) <= 1e-12 * abs(ref.bulk_energy)
    assert rep.inner_iterations < ref.inner_iterations


def test_setup_pins_one_dof_of_a_floating_parity_chain(lr_domain):
    # a full cut one row below the Neumann top side releases the datum on
    # its nodes; in the one-cell strip above it each parity couples only to
    # itself, and the chain of one parity meets no datum.  Set-up pins the
    # chain's lowest dof, and the free block is regular; without that pin its
    # smallest eigenvalue is -5.7e-15
    grid = Grid(lr_domain, 32)
    for row, pins in ((16, 0), (31, 1)):
        topo = cut_grid(grid, hslit(grid, 0, row, 32))
        constrained, fixed, vals = _dirichlet_setup(topo, linear_x)
        pinned = np.setdiff1d(fixed, constrained)
        assert len(pinned) == pins
        free = np.setdiff1d(np.arange(topo.n_dofs), fixed)
        K = assemble_metric(topo, np.tile(np.eye(2), (grid.n_cells, 1, 1)))
        A = K[free][:, free]
        assert np.linalg.eigvalsh(A.toarray())[0] > 1e-3
    strip = topo.cell_dofs[grid.cell_ij(np.arange(grid.n_cells))[1] == 31]
    i, j = grid.node_ij(topo.dof_node[strip])
    chain = strip[(i + j) % 2 == 1]
    assert pinned[0] == chain.min()
    u = np.zeros(topo.n_dofs)
    u[fixed] = vals
    x, _, res = pcg(A, -(K @ u)[free],
                    cycle=partial(_AggregationCycle, nodes=grid.node_ij(topo.dof_node[free])))
    assert res <= 1e-10


def test_cycle_deflates_a_pure_neumann_hessian_with_cross_parity_couplings():
    # no datum anywhere: the constant and the checkerboard are both null,
    # so the caller deflates the even and the odd indicator
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    _, _, A, nodes = p15_hessian_system(grid, vslit(grid, 16, 8, 16), every_dof=True)
    i, j = nodes
    even = (i + j) % 2 == 0
    deflate = [half / np.sqrt(half.sum()) for half in (even * 1.0, ~even * 1.0)]
    Q = np.column_stack(deflate)
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    b -= Q @ (Q.T @ b)
    x, _, res = pcg(A, b, tol=1e-12, deflate=deflate,
                    cycle=partial(_AggregationCycle, nodes=nodes))
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
    assert (rep.iterations, rep.inner_iterations) == {1.5: (3, 39), 3.0: (3, 35)}[p]


def test_landscape_solves_a_strip_with_a_floating_parity_chain(lr_domain):
    grid = Grid(lr_domain, 32)
    crack = hslit(grid, 0, 31, 32)
    integrand = ppower_integrand(2.0)
    _, rep = solve(grid, integrand, linear_x, crack)
    assert rep.bulk_energy == 0.49142295780248824
    landscape = EnergyLandscape(grid, integrand, linear_x)
    assert landscape.bulk(crack) == pytest.approx(rep.bulk_energy, rel=1e-12)


def test_newton_aggregates_its_warm_start_and_first_hessian_only(monkeypatch):
    # the Hessians of one Newton solve share a pattern: only the warm
    # start's cycle and the first Hessian's compute aggregates, and every
    # later step reuses the first Hessian's
    calls, solves = [], []
    aggregates = solver._aggregates
    build = solver._AggregationCycle.__init__
    free_block = solver._free_block

    def counted_aggregates(*args, **kwargs):
        calls.append(1)
        return aggregates(*args, **kwargs)

    def counted_build(self, *args, **kwargs):
        before = len(calls)
        build(self, *args, **kwargs)
        solves[-1].append(len(calls) - before)

    def new_solve(*args, **kwargs):
        solves.append([])
        return free_block(*args, **kwargs)

    monkeypatch.setattr(solver, "_aggregates", counted_aggregates)
    monkeypatch.setattr(solver._AggregationCycle, "__init__", counted_build)
    monkeypatch.setattr(solver, "_free_block", new_solve)
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    _, rep = solve(grid, ppower_integrand(1.5), linear_x, vslit(grid, 32, 16, 16))
    assert len(solves) == 1 and len(solves[0]) == rep.iterations + 1 >= 4
    assert solves[0][0] > 0 and solves[0][1] > 0
    release_bound(grid, ppower_integrand(1.5), linear_x, vslit(grid, 32, 26, 12), 1)
    assert len(solves) > 2
    assert all(len(builds) >= 2 and not any(builds[2:]) for builds in solves)


def refuse(*args, **kwargs):
    raise AssertionError("a replayed cycle aggregates nothing")


def test_a_replayed_cycle_returns_the_bits_of_the_cycle_that_recorded_it(monkeypatch):
    # newton's later steps replay the hierarchy that its first Hessian's
    # cycle recorded; on that Hessian, the replay is the recording cycle
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    _, _, A, nodes = p15_hessian_system(grid, vslit(grid, 32, 16, 16))
    levels = []
    recorded = _AggregationCycle(A, nodes, levels=levels)
    assert len(levels) == len(recorded.levels) >= 2
    monkeypatch.setattr(solver, "_aggregates", refuse)
    replayed = _AggregationCycle(A, nodes, levels=levels)
    r = np.random.default_rng(7).standard_normal(A.shape[0])
    assert np.array_equal(replayed(r).view(np.uint64), recorded(r).view(np.uint64))


def test_free_dofs_are_the_solve_unknowns_on_a_strip_with_a_floating_chain(lr_domain):
    # the pinned lowest dof of the odd chain is fixed, not free, so the block
    # over free_dofs() is regular and stress() leaves the pin out of its
    # residuals; a field lifted by the landscape gets its own grid's pins
    grid = Grid(lr_domain, 32)
    crack = hslit(grid, 0, 31, 32)
    field, _ = solve(grid, laplace_integrand(), linear_x, crack)
    topo = field.topology
    constrained, fixed, _ = _dirichlet_setup(topo, linear_x)
    assert len(fixed) == len(constrained) + 1
    free = field.free_dofs()
    assert np.array_equal(free, np.setdiff1d(np.arange(topo.n_dofs), fixed))
    K = assemble_metric(topo, np.tile(np.eye(2), (grid.n_cells, 1, 1)))
    assert np.linalg.eigvalsh(K[free][:, free].toarray())[0] > 1e-3
    # a slit inside a closed box is solved through the box alone; the field
    # lifted onto the slit's cut grid pins that grid's floating dofs
    box = [("h", i, j) for i in range(8, 24) for j in (8, 24)]
    box += [("v", i, j) for i in (8, 24) for j in range(8, 24)]
    boxed = CrackSet(grid, box + [("v", 16, j) for j in range(12, 20)])
    land = EnergyLandscape(grid, laplace_integrand(), linear_x)
    lifted = land.solve_field(boxed)
    assert len(land.effective(boxed)) == len(box)
    _, fixed, _ = _dirichlet_setup(lifted.topology, linear_x)
    assert np.array_equal(lifted.fixed, fixed)


def quadratic_datum(x, y):
    return 1.0 + np.asarray(x, dtype=float) + 0.5 * np.asarray(y, dtype=float) ** 2


@pytest.mark.parametrize("integrand, datum, centered", [
    (laplace_integrand(), quadratic_datum, False),
    (meyers_integrand(3.0, "radial_stiff"), meyers_profile(3.0, "radial_stiff"), True),
], ids=["laplace", "meyers"])
def test_spliced_systems_match_a_full_assembly(integrand, datum, centered):
    # every crack candidate's free block, right-hand side and level-0
    # aggregates, spliced from the uncracked problem, are bit for bit those
    # of a full assembly; only the first CG iterate differs from a cold solve.
    # Draw 1 debonds a loaded side but for its first edge: loaded on the
    # bottom alone, the datum then stays on node 0, and node 1 keeps its
    # fixed status but goes from its datum to the pin of the odd chain
    rng = np.random.default_rng(12)
    cases = [(12, ("left", "right")), (20, "all"), (32, ("left",)), (24, ("top",)),
             (16, ("bottom",))]
    for n, dirichlet in cases:
        grid = Grid(Domain.unit_square(dirichlet=dirichlet, centered=centered), n)
        uncracked = _Uncracked()
        _, rep0 = solve(grid, integrand, datum, _uncracked=uncracked)
        metric = integrand.cell_metric(*grid.cell_centers())
        side = grid.boundary_edges("left" if dirichlet == "all" else dirichlet[0])
        for draw in range(10):
            crack = (random_union(grid, rng) if draw > 1 else
                     CrackSet(grid, side[1:] if draw else ()))
            topo = cut_grid(grid, crack)
            _, fixed, vals = _dirichlet_setup(topo, datum)
            u = np.zeros(topo.n_dofs)
            u[fixed] = vals
            free = np.setdiff1d(np.arange(topo.n_dofs), fixed)
            block, rhs, first = uncracked.system(topo, metric, u, free)
            K = assemble_metric(topo, metric)
            full = K[free][:, free]
            assert np.array_equal(block.data.view(np.uint64), full.data.view(np.uint64))
            assert np.array_equal(block.indices, full.indices)
            assert np.array_equal(block.indptr, full.indptr)
            assert np.array_equal(rhs.view(np.uint64), (-(K @ u)[free]).view(np.uint64))
            i, j = grid.node_ij(topo.dof_node[free])
            bi, bj = i // 3, j // 3
            key = ((bi * (bj.max() + 1) + bj) * 2 + (i + j) % 2).astype(full.indices.dtype)
            nc, agg = _aggregates(full, _entry_rows(full), key, _STRONG)
            spliced_nc, spliced_agg = first()
            assert spliced_nc == nc and np.array_equal(spliced_agg, agg)
            values, _, _ = solver._solve_quadratic(topo, metric, u, free, 1e-10,
                                                   partial(_AggregationCycle, nodes=(i, j)))
            cold = bulk_energy(ScalarField(topo, integrand, values))
            _, warm = solve(grid, integrand, datum, crack, _uncracked=uncracked)
            assert abs(warm.bulk_energy - cold) <= 1e-12 * rep0.bulk_energy
            assert warm.residual <= 1e-10


def test_a_slit_parallel_to_the_gradient_costs_no_cg_iteration(lr_domain):
    # the uncracked field x solves every horizontal slit's problem, so the
    # warm start already meets pcg's stopping test; so does the empty crack
    # solved again, from the problem the landscape kept
    grid = Grid(lr_domain, 64)
    land = EnergyLandscape(grid, laplace_integrand(), linear_x)
    assert land.bulk() == pytest.approx(1.0)
    for crack in (hslit(grid, 10, 20, 30), None):
        _, cold = solve(grid, laplace_integrand(), linear_x, crack)
        _, warm = solve(grid, laplace_integrand(), linear_x, crack, _uncracked=land._uncracked)
        assert cold.iterations > 10 and warm.iterations == 0
        assert warm.bulk_energy == pytest.approx(cold.bulk_energy, rel=1e-12)


def test_pcg_returns_an_exact_first_iterate_without_building_the_cycle(monkeypatch):
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    _, _, A, nodes = p15_hessian_system(grid, vslit(grid, 16, 8, 16))
    rng = np.random.default_rng(6)
    b = rng.standard_normal(A.shape[0])
    exact = spsolve(A.tocsc(), b)
    builds = []
    build = solver._AggregationCycle.__init__

    def counted_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(solver._AggregationCycle, "__init__", counted_build)
    cycle = partial(_AggregationCycle, nodes=nodes)
    x, iters, res = pcg(A, b, tol=1e-10, x0=exact, cycle=cycle)
    assert (iters, builds) == (0, []) and res <= 1e-10
    assert np.array_equal(x, exact)
    # a first iterate whose residual sits just inside or just outside the
    # gate |r| <= tol |b| stops at that same gate
    e = rng.standard_normal(A.shape[0])
    Ae = np.linalg.norm(A @ e)
    for factor, stops_at_once in ((0.5, True), (2.0, False)):
        x0 = exact + factor * 1e-10 * np.linalg.norm(b) / Ae * e
        x, iters, res = pcg(A, b, tol=1e-10, x0=x0, cycle=cycle)
        assert (iters == 0) == stops_at_once and res <= 1e-10
        assert np.linalg.norm(b - A @ x) <= 1.01e-10 * np.linalg.norm(b)
    assert len(builds) == 1
