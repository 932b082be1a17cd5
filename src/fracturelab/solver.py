"""Minimize the bulk energy over a cut grid with Dirichlet data.

Discretization: bilinear quadrilateral cells with one-point quadrature at
cell centers (exact for linear fields).  Quadratic-form integrands (p = 2)
are solved by Jacobi-preconditioned conjugate gradients; general p-power
densities by damped Newton with an epsilon-regularized Hessian metric (the
energy itself is never regularized).  One Newton routine, newton(), serves
both this bulk solve and the collar problems of the dual bound; each caller
passes its own exit thresholds.  One routine, _solve_quadratic, assembles,
slices and solves every quadratic problem: the p = 2 bulk solve, Newton's
warm start and the p = 2 collar problem.

The Newton inner solves run CG preconditioned by an aggregation V-cycle,
about 15 iterations per step where Jacobi needs O(N) at N^2 cells.  The
Hessians of one Newton solve share one sparsity pattern, so newton builds
that pattern once, and the cycle of its first Hessian keeps its aggregates
for the later steps; each step refills only values: the Hessian's, the
coarse operators', the smoothers' and the coarse factor.  The cycle also
runs the quadratic-form solves of search.EnergyLandscape (about 25
iterations per crack candidate at 128^2 instead of about 300), whose
callers read energies and power pairings.

Those candidates are small perturbations of one problem, the uncracked
one.  Once a landscape has solved the empty crack it keeps that problem in
an _Uncracked: the node values, which nodes are fixed, the free block, its
right-hand side and its level-0 aggregates.  Each later candidate starts CG
from the uncracked values (pcg returns a first iterate that already meets
its stopping test after 0 iterations, as for a slit parallel to grad u),
assembles only the free-block rows its crack changes and aggregates only
the key blocks that hold them; every other row and aggregate is spliced in
from the uncracked problem, so the block, the right-hand side and the cycle
are bit for bit those of a full set-up, and only the first iterate differs.
Direct solve(), newton and p != 2 landscapes start from 0 and set up in
full.

A direct solve() of a quadratic
form stays on Jacobi: it stops on the CG residual alone, and at the same
relative residual the cycle leaves more of it in smooth modes, so the
stress's weak divergence against a smooth test function stays near 1e-10
instead of falling under refinement as Jacobi's does.  Newton steps end on
the Newton gradient test instead.

Stiffness assembly is parity split.  One-point quadrature sees a cell only
through its diagonal differences u11 - u00 and u10 - u01, each joining two
nodes of one parity (i + j even or odd).  A cell couples the two parities
only when its metric has M00 != M11; for isotropic metrics (every p = 2
scalar coefficient) the cross-parity couplings vanish identically, and
assemble_metric never stores them, leaving five couplings per row instead of
nine.  The Newton Hessians' one pattern holds every cell's cross-parity
couplings, zero or not.

Set-up pins to 0 what no Dirichlet datum anchors (CutTopology.floating_dofs):
every dof of a piece of the cut grid without a datum, and the lowest dof of
each datum-free parity chain, a diagonal component that shifts by a constant
without changing any cell gradient (a full cut one row from a Neumann side
leaves one).  Every bulk solve therefore has a positive definite free block,
and the cycle searches for no null space; only the pure-Neumann collars of
the dual bound deflate one.  A chain is 0 at its lowest dof, and 0 throughout
for integrands that depend on |grad u| only: its diagonal differences stay
at 0, where each cell's energy is least whatever the other parity does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpptrf, dpptrs
from scipy.sparse.csgraph import connected_components as _cs_components

from .energy import Integrand
from .errors import ConfigError, NoConvergence, SingularSystem
from .geometry import CrackSet, CutTopology, Grid, cut_grid

DEFAULT_TOL = 1e-10
NEWTON_MAX_ITER = 200


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

# center-gradient coefficients per corner (order 00, 10, 01, 11), times 2h
_AX = np.array([-1.0, 1.0, -1.0, 1.0])
_AY = np.array([-1.0, -1.0, 1.0, 1.0])


def cell_gradients(topology: CutTopology, values, cells=None):
    """Gradient of a dof field at cell centers; (n_cells, 2) or subset."""
    cd = topology.cell_dofs if cells is None else topology.cell_dofs[cells]
    u = np.asarray(values)[cd]
    inv = 1.0 / (2.0 * topology.grid.h)
    return np.stack([u @ _AX * inv, u @ _AY * inv], axis=1)


def scatter_weak_divergence(topology: CutTopology, cell_field, cells=None):
    """Per-dof residual r_a = sum_c h^2 w_c . grad(phi_a)|_c for a cell field w.

    This is the discrete pairing <w, grad phi_a>; it vanishes at free dofs
    when w is an equilibrated stress.  Given cells, w has one row per cell
    listed.
    """
    cd = topology.cell_dofs if cells is None else topology.cell_dofs[cells]
    w = np.asarray(cell_field)
    r = np.zeros(topology.n_dofs)
    half_h = 0.5 * topology.grid.h  # h^2 / (2h)
    for k in range(4):
        np.add.at(r, cd[:, k], half_h * (w[:, 0] * _AX[k] + w[:, 1] * _AY[k]))
    return r


# The center gradient is R d / (2h) with d = (u11 - u00, u10 - u01) and
# R = [[1, 1], [1, -1]], so the cell energy h^2 g^T M g = 1/4 d^T (R^T M R) d:
# N11 = (M00 + M11 + 2 M01) / 4 on d1-d1, N22 = (M00 + M11 - 2 M01) / 4 on
# d2-d2 and N12 = (M00 - M11) / 4 on d1-d2 (Flanagan & Belytschko's hourglass
# split).  Column k of _SAME_BLOCKS maps (M00, M01, M10, M11) to the local
# coupling (_SAME_ROWS[k], _SAME_COLS[k]), and likewise for _CROSS_*.
_N11 = np.array([0.25, 0.25, 0.25, 0.25])
_N22 = np.array([0.25, -0.25, -0.25, 0.25])
_N12 = np.array([0.25, 0.0, 0.0, -0.25])
_SAME_ROWS = np.array([0, 0, 3, 3, 1, 1, 2, 2])
_SAME_COLS = np.array([0, 3, 0, 3, 1, 2, 1, 2])
_SAME_BLOCKS = np.stack([_N11, -_N11, -_N11, _N11, _N22, -_N22, -_N22, _N22], axis=1)
_CROSS_ROWS = np.array([0, 0, 3, 3, 1, 2, 1, 2])
_CROSS_COLS = np.array([1, 2, 1, 2, 0, 0, 3, 3])
_CROSS_BLOCKS = np.stack([-_N12, _N12, _N12, -_N12, -_N12, _N12, _N12, -_N12], axis=1)


def assemble_metric(topology: CutTopology, metric_cells, cells=None):
    """Stiffness sum_c h^2 G^T M_c G as CSR over all dofs.

    metric_cells: (n, 2, 2) symmetric metric per (selected) cell.  Couplings
    between the two node parities are stored only for cells with
    M00 != M11; elsewhere they vanish identically and are never stored.
    """
    cd = topology.cell_dofs if cells is None else topology.cell_dofs[cells]
    # indices in the dtype CSR stores them in, so that they are not copied
    cd = cd.astype(np.int32 if topology.n_dofs < 2 ** 31 else np.int64)
    M = np.asarray(metric_cells, dtype=float)
    flat = M.reshape(-1, 4)
    cross = M[:, 0, 0] != M[:, 1, 1]
    ccd = cd[cross]
    vals = np.concatenate([(flat @ _SAME_BLOCKS).ravel(),
                           (flat[cross] @ _CROSS_BLOCKS).ravel()])
    rows = np.concatenate([cd[:, _SAME_ROWS].ravel(), ccd[:, _CROSS_ROWS].ravel()])
    cols = np.concatenate([cd[:, _SAME_COLS].ravel(), ccd[:, _CROSS_COLS].ravel()])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(topology.n_dofs, topology.n_dofs))
    return K.tocsr()


class _Scatter:
    """A CSR pattern built once from the (row, col) of each of a list of
    entries, and the int32 slot of each entry in it.  Called on the entries'
    values, it sums them into a CSR matrix of that pattern with one bincount.
    Entries with a negative row or column go to one dump slot past the end
    and are dropped."""

    def __init__(self, rows, cols, shape):
        n_rows, n_cols = shape
        # one sort key per entry, in int32 when it fits; dropped entries sort
        # last, so that their slot is the first past the pattern
        end = n_rows * n_cols
        keys = rows.astype(np.int32 if end < 2 ** 31 else np.int64) * n_cols + cols
        keys[(rows < 0) | (cols < 0)] = end
        order = np.argsort(keys)
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        self.slot = np.empty(len(keys), dtype=np.int32)
        self.slot[order] = np.cumsum(first, dtype=np.int32) - 1
        keys = keys[first]
        keys = keys[keys < end]
        itype = np.int32 if max(len(keys), n_cols) < 2 ** 31 else np.int64
        self.indices = (keys % n_cols).astype(itype)
        counts = np.bincount(keys // n_cols, minlength=n_rows)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(itype)
        self.shape = shape

    def __call__(self, values):
        data = np.bincount(self.slot, weights=values, minlength=len(self.indices) + 1)
        return sp.csr_matrix((data[:-1], self.indices, self.indptr), shape=self.shape)


def _free_block(topology: CutTopology, free, cells=None):
    """The _Scatter of the free x free stiffness block over cells, on the
    entries of _element_values: the couplings of every cell, its
    cross-parity ones included, so that one pattern holds every metric."""
    cd = topology.cell_dofs if cells is None else topology.cell_dofs[cells]
    local = np.full(topology.n_dofs, -1, dtype=np.int32 if len(free) < 2 ** 31 else np.int64)
    local[free] = np.arange(len(free))
    cd = local[cd]
    rows = np.concatenate([cd[:, _SAME_ROWS].ravel(), cd[:, _CROSS_ROWS].ravel()])
    cols = np.concatenate([cd[:, _SAME_COLS].ravel(), cd[:, _CROSS_COLS].ravel()])
    return _Scatter(rows, cols, (len(free), len(free)))


def _element_values(metric_cells):
    """Every local coupling of every cell for (n, 2, 2) metrics, in the
    entry order of _free_block."""
    flat = np.asarray(metric_cells, dtype=float).reshape(-1, 4)
    return np.concatenate([(flat @ _SAME_BLOCKS).ravel(), (flat @ _CROSS_BLOCKS).ravel()])


def pcg(A, b, tol=1e-10, deflate=(), x0=None, nodes=None, coarsening=None):
    """Preconditioned conjugate gradients with optional deflation.

    The preconditioner is Jacobi, or the aggregation V-cycle built from A
    when nodes = (i, j), the grid indices of A's rows, is given.
    coarsening: a _Coarsening that carries the cycle's aggregates from one
    call to the next on matrices of one pattern, or gives its level-0
    aggregates in advance (see _AggregationCycle).  x0 is the first iterate
    (default 0); when its residual already meets the stopping test
    |r| <= tol |b|, pcg returns it after 0 iterations without building a
    preconditioner.  deflate: orthonormal null vectors of A; b and the
    iterates are kept in their orthogonal complement.  Returns (x,
    iterations, relative residual).  Raises NoConvergence on breakdown (a
    non-finite residual or p.Ap <= 0) and when _iteration_cap(n)
    iterations do not reach tol.
    """
    n = A.shape[0]
    maxiter = _iteration_cap(n)
    Q = np.column_stack(deflate) if len(deflate) else None

    def project(v):
        """Remove the deflated components of v in place."""
        if Q is not None:
            v -= Q @ (Q.T @ v)
        return v

    b = project(np.array(b, dtype=float))
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    if not np.isfinite(bnorm):
        raise NoConvergence("pcg right-hand side is not finite", iterations=0,
                            residual=float("nan"))
    stop = (tol * bnorm) ** 2
    x = np.zeros(n) if x0 is None else project(np.array(x0, dtype=float))
    r = b.copy() if x0 is None else project(b - A @ x)
    rr = r @ r
    if x0 is not None and rr <= stop:
        return x, 0, np.sqrt(rr) / bnorm
    if nodes is None:
        inv_d = _inverse_diagonal(A)

        def precondition(r, z):
            np.multiply(r, inv_d, out=z)
    else:
        cycle = _AggregationCycle(A, nodes, singular=Q is not None, coarsening=coarsening)

        def precondition(r, z):
            z[:] = project(cycle(r))
    z = np.empty(n)
    precondition(r, z)
    p = z.copy()
    step = np.empty(n)
    rz = r @ z
    for it in range(1, maxiter + 1):
        Ap = project(A @ p)
        pAp = p @ Ap
        if not 0.0 < pAp < np.inf:  # also NaN, which a non-finite residual spreads
            raise NoConvergence(f"pcg broke down at iteration {it} (p.Ap = {pAp:.3e})",
                                iterations=it, residual=float(np.sqrt(rr) / bnorm))
        alpha = rz / pAp
        np.multiply(p, alpha, out=step)
        x += step
        np.multiply(Ap, alpha, out=step)
        r -= step
        rr = r @ r
        if rr <= stop:
            return project(x), it, np.sqrt(rr) / bnorm
        precondition(r, z)
        rz_new = r @ z
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NoConvergence(
        f"pcg stalled at relative residual {np.sqrt(rr) / bnorm:.3e}",
        iterations=maxiter,
        residual=float(np.sqrt(rr) / bnorm),
    )


# The largest iterations / sqrt(n) of any converged pcg solve in the test
# suite and the bench workloads is 6.0 (Jacobi, n = 90); over 3.4 only on
# systems below 2000 unknowns.  Ten times that is a solve that has stalled.
_CAP_PER_ROOT_N = 64


def _iteration_cap(n):
    """Default pcg iteration cap for n unknowns."""
    return int(np.ceil(_CAP_PER_ROOT_N * np.sqrt(n)))


def _inverse_diagonal(A):
    """1 / diag(A), with 1 where the diagonal is not positive."""
    inv_d = np.array(A.diagonal(), dtype=float)
    inv_d[inv_d <= 0] = 1.0
    return np.reciprocal(inv_d, out=inv_d)


# Aggregation multigrid (Braess 1995; Notay 2010).  Fine aggregates are the
# connected components of the strong couplings |a_ij| >= _STRONG sqrt(a_ii a_jj)
# inside one key (i // 3, j // 3, parity); each coarser level keys on
# (bi // 2, bj // 2, parity) with every coupling.  No aggregate mixes the node
# parities, so the piecewise-constant coarse space holds the checkerboard, an
# exact null vector of every one-point stiffness, and none crosses a crack,
# whose cut couplings are not in A.
_STRONG = 0.08
_COARSE_SIZE = 300      # a dense Cholesky factor at or below this size
_STALL = 0.8            # coarsening that keeps more of the unknowns stops
_BRAESS = 1.5           # over-relaxation of the coarse correction


class _Coarsening:
    """The symbolic half of an aggregation cycle.  For the matrices of one
    pattern: per level the aggregates, their count and the _Scatter of the
    Galerkin operator on the level's entries; levels is None until a cycle
    has filled it.  Or, with first, a callable that returns the level-0
    aggregates (nc, agg) of the matrix a cycle is built on: such a
    coarsening is never filled, and the cycle is built as one without a
    coarsening, but for the call to _aggregates that first stands in for."""

    def __init__(self, first=None):
        self.levels = None
        self.first = first


class _AggregationCycle:
    """Symmetric V(1,1) cycle: Jacobi smoothing damped by 4 / (3 rho), rho the
    Gershgorin bound of D^-1 A on each level, and Galerkin coarse operators
    (A's entries summed per aggregate pair).  Call it on a residual.

    A must be positive definite unless singular: then the caller deflates
    A's null space, and the coarsest operator is shifted by 1e-12 of its
    largest diagonal entry before it is factored.

    With an empty coarsening, the cycle records its aggregates in it and
    sums its Galerkin operators through slot maps over every stored entry
    (the SpGEMM of _galerkin drops sums that cancel, so its pattern can
    change with the values); with a filled one, it takes the aggregates and
    maps from it, so A must have the pattern of the matrix that filled it.
    A coarsening with first gives only the level-0 aggregates.  Smoothers,
    coarse values and the coarse factor are always A's own.
    """

    def __init__(self, A, nodes, singular=False, coarsening=None):
        self.levels = []
        if coarsening is not None and coarsening.levels is not None:
            for agg, nc, galerkin in coarsening.levels:
                self._add_level(A, _entry_rows(A), agg, nc)
                A = galerkin(A.data)
        else:
            first = coarsening.first if coarsening is not None else None
            record = [] if coarsening is not None and first is None else None
            i, j = (np.asarray(v) for v in nodes)
            bi, bj, parity = i // 3, j // 3, (i + j) % 2
            strong = _STRONG
            while A.shape[0] > _COARSE_SIZE:
                n = A.shape[0]
                rows = _entry_rows(A)
                if first is not None and not self.levels:
                    nc, agg = first()
                else:
                    key = ((bi * (bj.max() + 1) + bj) * 2 + parity).astype(A.indices.dtype)
                    nc, agg = _aggregates(A, rows, key, strong)
                if nc > _STALL * n:
                    break
                self._add_level(A, rows, agg, nc)
                if record is None:
                    A = _galerkin(A, agg, nc)
                else:
                    galerkin = _Scatter(agg[rows], agg[A.indices], (nc, nc))
                    record.append((agg, nc, galerkin))
                    A = galerkin(A.data)
                member = np.empty(nc, dtype=agg.dtype)
                member[agg] = np.arange(n, dtype=agg.dtype)
                bi, bj, parity = bi[member] // 2, bj[member] // 2, parity[member]
                strong = 0.0
            if record is not None:
                coarsening.levels = record
        dense = A.toarray()
        if singular:
            dense[np.diag_indices_from(dense)] += 1e-12 * dense.diagonal().max()
        # packed Cholesky runs on level-2 BLAS; the blocked dpotrf fills BLAS
        # work buffers that cost about 2 MB of resident memory per process
        self.coarse, info = dpptrf(len(dense), dense[np.triu_indices(len(dense))], lower=1,
                                   overwrite_ap=1)
        if info:
            raise NoConvergence("coarse operator of the aggregation cycle is not "
                                "positive definite", iterations=0, residual=float("nan"))

    def _add_level(self, A, rows, agg, nc):
        """A level on A with its damped Jacobi weights; rows holds the row of
        each stored entry."""
        inv_d = _inverse_diagonal(A)
        rho = np.max(np.bincount(rows, weights=np.abs(A.data), minlength=A.shape[0]) * inv_d)
        self.levels.append((A, inv_d * (4.0 / (3.0 * rho)), agg, nc))

    def __call__(self, b, level=0):
        if level == len(self.levels):
            return dpptrs(len(b), self.coarse, b, lower=1)[0]
        A, w, agg, nc = self.levels[level]
        x = w * b
        r = np.bincount(agg, weights=b - A @ x, minlength=nc)
        r *= _BRAESS
        x += self(r, level + 1)[agg]
        x += w * (b - A @ x)
        return x


def _entry_rows(A):
    """The row of each stored entry of the CSR matrix A."""
    return np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))


def _aggregates(A, rows, key, strong):
    """Connected components of A's couplings that stay inside one key and,
    when strong > 0, have |a_ij| >= strong sqrt(a_ii a_jj); A is CSR and
    rows holds the row of each stored entry."""
    keep = key[rows] == key[A.indices]
    if strong:
        same = np.flatnonzero(keep)
        d = A.diagonal()
        keep[same] = A.data[same] ** 2 >= strong ** 2 * (d[rows[same]] * d[A.indices[same]])
    nc, agg = _components(A, keep)
    return nc, agg.astype(A.indices.dtype)


def _components(A, keep):
    """Connected components of the graph of A's stored entries where the
    boolean keep holds.  csgraph counts stored zeros as edges, so the others
    are dropped, in place, from copies of A's index arrays."""
    G = sp.csr_matrix((keep.view(np.int8), A.indices.copy(), A.indptr.copy()),
                      shape=A.shape)
    G.eliminate_zeros()
    return _cs_components(G, directed=False)


def _galerkin(A, agg, nc):
    """P^T A P for the piecewise-constant prolongator of the aggregates:
    A's columns summed per aggregate (duplicates left in), then its rows,
    without a transpose of A."""
    n = A.shape[0]
    AP = sp.csr_matrix((A.data, agg[A.indices], A.indptr), shape=(n, nc))
    members = np.argsort(agg, kind="stable").astype(agg.dtype)
    starts = np.concatenate([[0], np.cumsum(np.bincount(agg, minlength=nc))])
    return sp.csr_matrix((np.ones(n), members, starts), shape=(nc, n)) @ AP


def checkerboard_vector(topology: CutTopology, dofs=None):
    """+-1 by node parity; exact null vector of every cell-metric stiffness."""
    nodes = topology.dof_node if dofs is None else topology.dof_node[dofs]
    i, j = topology.grid.node_ij(nodes)
    return np.where((i + j) % 2 == 0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# fields and reports
# ---------------------------------------------------------------------------


@dataclass
class SolveReport:
    iterations: int
    inner_iterations: int       # all CG iterations; = iterations on the cg path
    residual: float
    bulk_energy: float
    wall_time: float
    method: str


class ScalarField:
    """Nodal displacement on a cut topology, plus its generating data.

    constrained: the dofs that carry the Dirichlet datum; fixed: those and
    the dofs the solve pinned to 0 (see _dirichlet_setup), constrained by
    default.  free_dofs() are the others, the unknowns of the solve.
    """

    def __init__(self, topology: CutTopology, integrand: Integrand, values,
                 psi=None, constrained=None, fixed=None):
        self.topology = topology
        self.integrand = integrand
        self.values = np.asarray(values, dtype=float)
        self.psi = psi
        self.constrained = constrained if constrained is not None else np.empty(0, int)
        self.fixed = fixed if fixed is not None else self.constrained
        self._grads = None

    @property
    def grid(self) -> Grid:
        return self.topology.grid

    @property
    def crack(self) -> CrackSet:
        return self.topology.crack

    def gradients(self):
        if self._grads is None:
            self._grads = cell_gradients(self.topology, self.values)
        return self._grads

    def free_dofs(self):
        mask = np.ones(self.topology.n_dofs, dtype=bool)
        mask[self.fixed] = False
        return np.nonzero(mask)[0]

    def perturbed(self, delta):
        """Copy with values + delta (delta must vanish on fixed dofs)."""
        return ScalarField(self.topology, self.integrand, self.values + delta,
                           self.psi, self.constrained, self.fixed)


@dataclass
class StressField:
    """Cell-wise stress with its equilibrium diagnostics."""

    field: ScalarField
    sigma: np.ndarray           # (n_cells, 2)
    residual_per_dof: np.ndarray
    div_residual: float         # normalized max at interior free dofs
    neumann_residual: float     # normalized max at boundary / crack-face dofs

    def weak_divergence(self, test_fn):
        """| sum_c h^2 sigma_c . grad(w)(x_c) | for a smooth test function w.

        grad(w) is approximated by central differences of test_fn; a
        refinement study of this number measures physical divergence-freeness.
        """
        grid = self.field.grid
        xc, yc = grid.cell_centers()
        d = 1e-6 * grid.h
        gx = (test_fn(xc + d, yc) - test_fn(xc - d, yc)) / (2 * d)
        gy = (test_fn(xc, yc + d) - test_fn(xc, yc - d)) / (2 * d)
        h2 = grid.h ** 2
        return abs(h2 * np.sum(self.sigma[:, 0] * gx + self.sigma[:, 1] * gy))


# ---------------------------------------------------------------------------
# boundary data and pinning
# ---------------------------------------------------------------------------


def _dirichlet_setup(topology: CutTopology, psi):
    """Constrained dofs, and the fixed dofs with their values: the datum on
    the constrained ones, 0 on CutTopology.floating_dofs."""
    grid = topology.grid
    if not grid.domain.dirichlet_part or len(grid.dirichlet_nodes()) == 0:
        raise SingularSystem("domain declares no Dirichlet boundary")
    constrained = topology.constrained_dofs()
    x, y = grid.node_xy(constrained)
    vals = np.asarray(psi(x, y), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape).copy()
    if not np.isfinite(vals).all():
        bad = np.flatnonzero(~np.isfinite(vals))[0]
        raise ConfigError(
            f"Dirichlet datum is {vals[bad]} at ({x[bad]:.6g}, {y[bad]:.6g})",
            section="datum",
        )
    floating = topology.floating_dofs(constrained)
    fixed = np.concatenate([constrained, floating])
    fixed_vals = np.concatenate([vals, np.zeros(len(floating))])
    order = np.argsort(fixed, kind="stable")
    return constrained, fixed[order], fixed_vals[order]


def datum_scale(psi, grid: Grid):
    x, y = grid.node_xy(grid.dirichlet_nodes())
    if len(x) == 0:
        return 1.0
    v = np.abs(np.asarray(psi(x, y), dtype=float))
    return float(v.max()) if v.size and v.max() > 0 else 1.0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def solve(grid: Grid, integrand: Integrand, psi, crack: CrackSet = None,
          tol: float = DEFAULT_TOL, *, _cycle=False):
    """Elastic solution for the datum psi on the cracked grid.

    Returns (ScalarField, SolveReport).  psi is a vectorized callable
    psi(x, y) evaluated on Dirichlet nodes (values elsewhere are ignored).
    _cycle (package-internal) runs a quadratic-form solve on the
    aggregation cycle instead of Jacobi; given an _Uncracked instead of
    True, it also starts the solve from the uncracked problem kept there,
    or keeps it there when the crack is empty.  See the module docstring.
    """
    t0 = time.perf_counter()
    topology = cut_grid(grid, crack)
    constrained, fixed, fixed_vals = _dirichlet_setup(topology, psi)
    u = np.zeros(topology.n_dofs)
    u[fixed] = fixed_vals
    free = np.ones(topology.n_dofs, dtype=bool)
    free[fixed] = False
    free = np.nonzero(free)[0]

    if integrand.is_quadratic_form:
        # the metrics are the only reference to themselves, which
        # _solve_quadratic drops before pcg
        u, iters, res = _solve_quadratic(topology, integrand.cell_metric(*grid.cell_centers()),
                                         u, free, tol, _cycle)
        inner = iters
        method = "cg"
    else:
        u, iters, inner, res = newton(topology, integrand, u, free,
                                      eps=1e-8 * datum_scale(psi, topology.grid), tol=tol,
                                      gtol=1e-8, stall_gtol=1e-5, gfloor=1e-12)
        method = "newton"

    field = ScalarField(topology, integrand, u, psi, constrained, fixed)
    report = SolveReport(
        iterations=iters,
        inner_iterations=inner,
        residual=res,
        bulk_energy=bulk_energy(field),
        wall_time=time.perf_counter() - t0,
        method=method,
    )
    return field, report


def _solve_quadratic(topology, metric_cells, u, free, tol, cycle, cells=None, load=None,
                     deflate=()):
    """Minimize sum_{c in cells} h^2 grad u . M_c grad u / 2 - load . u[free]
    over u[free] for the (n, 2, 2) metrics M of the cells (all by default):
    the one assemble, free-block and pcg of every quadratic solve.  cycle
    runs pcg on the aggregation cycle instead of Jacobi; an _Uncracked runs
    it too, spliced from and started at the uncracked problem once that is
    kept, and keeps it when topology is uncut.  deflate is passed to pcg.
    Returns (u, CG iterations, relative residual)."""
    if len(free) == 0:
        return u, 0, 0.0
    uncracked = cycle if isinstance(cycle, _Uncracked) else None
    x0 = coarsening = None
    keeping = False
    if uncracked is not None and uncracked.values is not None:
        Kff, b, coarsening = uncracked.system(topology, metric_cells, u, free)
        x0 = uncracked.values[topology.dof_node[free]]
    else:
        K = assemble_metric(topology, metric_cells, cells=cells)
        Kff = K[free][:, free]
        b = -(K @ u)[free]
        del K  # not held while pcg builds its preconditioner
        keeping = uncracked is not None and topology.crack.is_empty
        if keeping:
            coarsening = uncracked.keep(topology, Kff, b, free)
    del metric_cells  # not held while pcg runs, where a solve's memory peaks
    if load is not None:
        b += load
    nodes = topology.grid.node_ij(topology.dof_node[free]) if cycle else None
    x, iters, res = pcg(Kff, b, tol=tol, deflate=deflate, x0=x0, nodes=nodes,
                        coarsening=coarsening)
    u = u.copy()
    u[free] += x
    if keeping:
        uncracked.values = u
    return u, iters, res


class _Uncracked:
    """The quadratic problem of the uncut grid, kept for the crack candidates
    of one landscape: its node values, which nodes are fixed, the free block
    and right-hand side, and the block's level-0 aggregates (as the lowest
    member of each row's aggregate).  values is None until the solve of the
    empty crack has filled it.

    A crack changes the free block only in the rows of dofs whose cells it
    cuts, and in the rows coupled to a node whose fixed status or value
    changes: a crack endpoint on a Dirichlet side releases the datum, and a
    closed crack pins what it encloses.  system() assembles those rows over
    their cells and splices every other row in from the uncracked block,
    renumbered, so the block and right-hand side are bit for bit those of a
    full assembly; likewise it aggregates only the key blocks of _aggregates
    that hold a changed row (aggregates never leave a key block).
    """

    def __init__(self):
        self.values = None

    def keep(self, topology, block, rhs, free):
        """Keep the uncut problem's free block and right-hand side; returns
        the _Coarsening of its level-0 aggregates.  values is set by the
        caller once the solve is done.

        A landscape holds this for its lifetime, so it is kept compact: row
        lengths (at most 9) in bytes, columns and aggregate members in the
        smallest unsigned type, the entries as byte codes when there are at
        most 256 distinct ones (piecewise-constant coefficients), and the
        right-hand side only where it is not -0.0, i.e. -(K @ u) of a row
        coupled to no fixed node."""
        small = np.min_scalar_type(len(free))
        entries = np.unique(block.data)
        self.entries = ((entries, np.searchsorted(entries, block.data).astype(np.uint8))
                        if len(entries) <= 256 else (block.data, None))
        self.indices = block.indices.astype(small)
        self.lengths = np.diff(block.indptr).astype(np.uint8)
        self.loaded = np.flatnonzero((rhs != 0) | ~np.signbit(rhs)).astype(small)
        self.loads = rhs[self.loaded]
        self.fixed = np.ones(topology.n_dofs, dtype=bool)
        self.fixed[free] = False
        i, j = topology.grid.node_ij(free)
        aggregates = _aggregates(block, _entry_rows(block), self._keys(topology.grid, i, j),
                                 _STRONG)
        # per row, the row of its aggregate's lowest member
        self.lowest = _first_members(aggregates[1]).astype(small)[aggregates[1]]
        return _Coarsening(first=lambda: aggregates)

    @staticmethod
    def _keys(grid, i, j):
        """The key of _aggregates at level 0 (3 x 3 node blocks per parity)."""
        return ((i // 3) * (grid.ny // 3 + 1) + j // 3) * 2 + (i + j) % 2

    def system(self, topology, metric_cells, u, free):
        """The free block and right-hand side of a cut grid's problem with
        fixed values u, and a _Coarsening that gives the block's level-0
        aggregates: those of K[free][:, free], -(K @ u)[free] and _aggregates
        for the full assembly K, bit for bit."""
        grid = topology.grid
        n_nodes = grid.n_nodes
        cd = topology.cell_dofs
        fixed = np.ones(topology.n_dofs, dtype=bool)
        fixed[free] = False
        fixed_nodes = fixed[:n_nodes]
        moved = np.flatnonzero((fixed_nodes != self.fixed)
                               | (fixed_nodes & (u[:n_nodes] != self.values)))
        # the cells the crack cuts hold a duplicate dof; their dofs change
        # rows, and so do the nodes they held before the cut and the dofs of
        # the cells around a node whose fixed status or value moved
        around = grid.cells_around(topology.dof_node[n_nodes:])
        cut = cd[around[(cd[around] >= n_nodes).any(axis=1)]]
        changed = np.zeros(topology.n_dofs, dtype=bool)
        changed[cut] = True
        changed[topology.dof_node[cut]] = True
        changed[cd[grid.cells_around(moved)]] = True
        cells = np.zeros(grid.n_cells, dtype=bool)
        cells[grid.cells_around(topology.dof_node[changed])] = True
        cells = np.flatnonzero(cells)
        fresh = np.flatnonzero(changed[free])
        K = assemble_metric(topology, metric_cells[cells], cells=cells)[free[fresh]]
        fresh_rhs = -(K @ u)
        K = K[:, free]

        # every other row is the uncracked row of a node free in both
        # problems, with its columns renumbered from there to here
        itype = K.indices.dtype
        was_free = ~self.fixed
        renumber = (np.cumsum(~fixed_nodes, dtype=itype) - 1)[was_free]
        clean0 = ~(changed[:n_nodes] | fixed_nodes)[was_free]
        rows0 = np.flatnonzero(clean0).astype(itype)
        spliced = renumber[rows0]
        n = len(free)
        lengths = np.empty(n, dtype=itype)
        lengths[spliced] = self.lengths[rows0]
        lengths[fresh] = np.diff(K.indptr)
        indptr = np.zeros(n + 1, dtype=itype)
        np.cumsum(lengths, out=indptr[1:])
        start = np.empty(n, dtype=itype)
        start[spliced] = (np.cumsum(self.lengths, dtype=itype) - self.lengths)[rows0]
        start[fresh] = K.indptr[:-1] + len(self.indices)
        take = np.repeat(start - indptr[:-1], lengths) + np.arange(indptr[-1], dtype=itype)
        columns = (self.indices if np.array_equal(fixed_nodes, self.fixed)
                   else renumber[self.indices])
        data, codes = self.entries
        block = sp.csr_matrix(
            (np.concatenate([data if codes is None else data[codes], K.data])[take],
             np.concatenate([columns, K.indices]).astype(itype, copy=False)[take], indptr),
            shape=(n, n))
        rhs = np.full(n, -0.0)
        loaded = clean0[self.loaded]
        rhs[renumber[self.loaded[loaded]]] = self.loads[loaded]
        rhs[fresh] = fresh_rhs

        def first():
            return self._splice_aggregates(topology, block, free, changed, spliced,
                                           renumber[self.lowest[rows0]])
        return block, rhs, _Coarsening(first=first)

    def _splice_aggregates(self, topology, block, free, changed, spliced, lowest):
        """_aggregates of block at level 0: the uncracked aggregates of every
        key block without a changed dof, and fresh ones in the others,
        numbered by their lowest member as csgraph numbers components;
        spliced holds the unchanged rows, lowest the row of the lowest member
        of each one's uncracked aggregate."""
        grid = topology.grid
        # the nodes of every key block that holds a changed dof
        blocks = np.unique(self._keys(grid, *grid.node_ij(topology.dof_node[changed])))
        (bi, bj), parity = np.divmod(blocks // 2, grid.ny // 3 + 1), blocks % 2
        i = 3 * bi[:, None] + np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
        j = 3 * bj[:, None] + np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        inside = (i <= grid.nx) & (j <= grid.ny) & ((i + j) % 2 == parity[:, None])
        dirty = np.zeros(grid.n_nodes, dtype=bool)
        dirty[grid.node_id(i[inside], j[inside])] = True
        dirty = dirty[topology.dof_node[free]]
        # a key block without a changed dof holds unchanged rows only and
        # keeps its uncracked aggregates; each row's lowest member, then
        # those of the fresh aggregates of the other blocks
        low = np.empty(len(free), dtype=block.indices.dtype)
        low[spliced] = lowest
        fresh = np.flatnonzero(dirty)
        if len(fresh):
            sub = block[fresh][:, fresh]
            key = self._keys(grid, *grid.node_ij(topology.dof_node[free[fresh]]))
            _, agg = _aggregates(sub, _entry_rows(sub), key, _STRONG)
            low[fresh] = fresh[_first_members(agg)[agg]]
        is_low = np.zeros(len(free), dtype=bool)
        is_low[low] = True
        rank = np.cumsum(is_low, dtype=block.indices.dtype) - 1
        return int(rank[-1]) + 1, rank[low]


def _first_members(agg):
    """The lowest member of each component, for labels numbered by their
    lowest member (as csgraph numbers them)."""
    top = np.maximum.accumulate(agg)
    return np.flatnonzero(np.diff(top, prepend=-1) > 0)


def _energy_and_gradient(topology, integrand, u, free, xc, yc, cells=None, load=None,
                         deflate=()):
    """sum_{c in cells} h^2 f(x_c, grad u) - load . u[free], its gradient in
    u[free] with the deflated components removed, and the cell gradients;
    (xc, yc) are the centers of the cells."""
    g = cell_gradients(topology, u, cells=cells)
    f, sigma = integrand.eval_f_and_grad(xc, yc, g)
    E = topology.grid.h ** 2 * float(np.sum(f))
    grad = scatter_weak_divergence(topology, sigma, cells=cells)[free]
    if load is not None:
        E -= float(load @ u[free])
        grad -= load
    for q in deflate:
        grad -= (grad @ q) * q
    return E, grad, g


def newton(topology, integrand, u, free, *, eps, tol, gtol, stall_gtol, gfloor,
           cells=None, load=None, deflate=()):
    """Damped Newton for sum_{c in cells} h^2 f(x_c, grad u) - load . u[free]
    over u[free], for a p-power integrand; cells defaults to all cells.

    The Newton metric is the Hessian regularized by
    (eps^2 + |g|^2)^((p-2)/2); energies and gradients are exact.  The first
    iterate solves the quadratic problem with the same coefficient.  deflate:
    orthonormal null vectors of the problem, orthogonal to load, kept out of
    the gradient and the steps.  A step ends the solve when its energy
    decrease is at most tol (1 + |E|) and the gradient is at most
    max(gtol |g0|, gfloor), or when the energy has stopped moving at the
    floating-point floor for three steps with the gradient at most
    stall_gtol |g0|; g0 is the gradient of the first iterate.  Returns
    (u, Newton steps, inner CG iterations, relative gradient); raises
    NoConvergence after NEWTON_MAX_ITER steps.
    """
    p = integrand.p
    xc, yc = topology.grid.cell_centers()
    if cells is not None:
        xc, yc = xc[cells], yc[cells]
    c = integrand.coeff.scalar(xc, yc)
    nodes = topology.grid.node_ij(topology.dof_node[free])
    # the Hessians of all steps share one pattern: build it, and the cycle's
    # aggregates (from the first Hessian), once
    block = _free_block(topology, free, cells)
    coarsening = _Coarsening()
    # warm start from the quadratic problem with the same coefficient
    M0 = np.zeros((len(c), 2, 2))
    M0[:, 0, 0] = c
    M0[:, 1, 1] = c
    u, total_iters, _ = _solve_quadratic(topology, M0, u, free, 1e-8, True, cells, load,
                                         deflate)

    E, grad, g = _energy_and_gradient(topology, integrand, u, free, xc, yc, cells, load,
                                      deflate)
    g0 = max(np.linalg.norm(grad), 1e-30)
    stagnant = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        # regularized Hessian metric per cell
        r2 = eps * eps + np.sum(g * g, axis=1)
        fac = c * r2 ** ((p - 2.0) / 2.0)
        H = np.zeros((len(c), 2, 2))
        H[:, 0, 0] = fac
        H[:, 1, 1] = fac
        H += ((p - 2.0) * c * r2 ** ((p - 4.0) / 2.0))[:, None, None] * (
            g[:, :, None] * g[:, None, :]
        )
        dx, inner, _ = pcg(block(_element_values(H)), -grad, tol=1e-6, deflate=deflate,
                           nodes=nodes, coarsening=coarsening)
        total_iters += inner
        slope = grad @ dx
        alpha = 1.0
        for _ in range(50):
            trial = u.copy()
            trial[free] += alpha * dx
            E_new, grad_new, g_new = _energy_and_gradient(
                topology, integrand, trial, free, xc, yc, cells, load, deflate
            )
            if E_new <= E + 1e-4 * alpha * slope or alpha < 1e-12:
                break
            alpha *= 0.5
        decrement = E - E_new
        u = trial
        E, grad, g = E_new, grad_new, g_new
        gn = np.linalg.norm(grad)
        if decrement <= tol * (1.0 + abs(E)) and gn <= max(gtol * g0, gfloor):
            return u, it, total_iters, gn / g0
        # stalled at the floating-point floor of the energy with the gradient
        # already reduced: accept (monotone descent guarantees near-optimality)
        stagnant = stagnant + 1 if decrement <= 1e-15 * (1.0 + abs(E)) else 0
        if stagnant >= 3 and gn <= stall_gtol * g0:
            return u, it, total_iters, gn / g0
    raise NoConvergence(
        f"newton did not converge in {NEWTON_MAX_ITER} iterations",
        iterations=NEWTON_MAX_ITER,
        residual=float(np.linalg.norm(grad) / g0),
    )


# ---------------------------------------------------------------------------
# stress and energies
# ---------------------------------------------------------------------------


def stress(field: ScalarField) -> StressField:
    """Cell stress sigma = grad_f(x, grad u) with equilibrium residuals."""
    topology = field.topology
    grid = topology.grid
    xc, yc = grid.cell_centers()
    sigma = field.integrand.grad_f(xc, yc, field.gradients())
    r = scatter_weak_divergence(topology, sigma)
    scale = grid.h * max(1.0, float(np.abs(sigma).max(initial=0.0)))
    free = field.free_dofs()
    on_boundary = np.zeros(grid.n_nodes, dtype=bool)
    on_boundary[grid.boundary_nodes()] = True
    is_interior = (~on_boundary[topology.dof_node[free]]) & (free < grid.n_nodes)
    interior = free[is_interior]
    other = free[~is_interior]
    div_res = float(np.abs(r[interior]).max(initial=0.0) / scale)
    neu_res = float(np.abs(r[other]).max(initial=0.0) / scale)
    return StressField(field, sigma, r, div_res, neu_res)


def bulk_energy(field: ScalarField) -> float:
    """Midpoint-quadrature bulk energy sum_c h^2 f(x_c, grad u|_c)."""
    grid = field.grid
    xc, yc = grid.cell_centers()
    return grid.h ** 2 * float(np.sum(field.integrand.eval_f(xc, yc, field.gradients())))


def total_energy(field: ScalarField, crack: CrackSet, k: float) -> float:
    """Bulk energy plus toughness times crack length."""
    return bulk_energy(field) + k * crack.h1()


def field_from_function(topology: CutTopology, integrand: Integrand, fn) -> ScalarField:
    """Evaluate an analytic displacement on a cut topology.

    Evaluation points are nudged slightly toward the mean of each dof's
    incident cell centers, which places duplicated instances on their own
    side of the crack (branch disambiguation for discontinuous fields).
    """
    grid = topology.grid
    x, y = topology.dof_xy()
    xc, yc = grid.cell_centers()
    sx = np.zeros(topology.n_dofs)
    sy = np.zeros(topology.n_dofs)
    cnt = np.zeros(topology.n_dofs)
    for k in range(4):
        np.add.at(sx, topology.cell_dofs[:, k], xc)
        np.add.at(sy, topology.cell_dofs[:, k], yc)
        np.add.at(cnt, topology.cell_dofs[:, k], 1.0)
    cnt[cnt == 0] = 1.0
    lam = 0.01
    px = x + lam * (sx / cnt - x)
    py = y + lam * (sy / cnt - y)
    vals = np.asarray(fn(px, py), dtype=float)
    return ScalarField(topology, integrand, vals)
