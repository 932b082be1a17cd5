"""Certified upper bounds on energy release via admissible stress fields.

Given the uncracked stress sigma and a cover of the crack, build

    tau = phi * sigma + sum_members eta,

where phi is a cutoff vanishing on the cover members and each eta is a
corrector solving a p-Laplacian problem on the member's collar so that tau
pairs to zero with every admissible variation of the cracked problem.  The
duality gap

    int (tau - sigma) . (grad_fstar(tau) - grad_fstar(sigma))

then dominates the bulk-energy release of the crack, without ever solving
the cracked problem.  For p != 2 a corrector minimizes the collar energy
sum h^2 |grad v|^p / p - rhs . v with solver.newton, the damped Newton of
the bulk solve.  For p = 2 it solves the quadratic collar problem with the
routine of the bulk solve's quadratic forms, on Jacobi-preconditioned CG.
The conjugate gradient grad_fstar is the base field's Integrand's own, and
the cutoff's gradients come from the solver's one gradient stencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _cs_components

from .energy import Integrand, ppower_integrand
from .errors import (
    CompatibilityViolated,
    ResidualTooLarge,
    UnresolvableCover,
)
from .geometry import Cover, CrackSet, Grid, cover_crack, cut_grid
from .solver import (
    ScalarField,
    StressField,
    _solve_quadratic,
    cell_gradients,
    checkerboard_vector,
    newton,
    scatter_weak_divergence,
    solve,
    stress,
)

INTERIOR = "interior"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"
MIXED = "mixed"

_EPS = 1e-12


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass
class CutoffField:
    """Nodal cutoff phi: 0 on cover members, 1 outside their doubles."""

    grid: Grid
    cover: Cover
    node_values: np.ndarray
    cell_values: np.ndarray
    member_node_values: list
    member_cell_values: list  # each member's cutoff averaged over cell corners
    member_max_grad: list   # measured max |grad phi_member| at cell centers
    member_grad_bound: list  # the 2/r style bound per member


def cutoff(cover: Cover, grid: Grid) -> CutoffField:
    """C1 radial ramp (cubic smoothstep between metric 1 and 2) per member,
    multiplied over members.  Requires every member scale >= 4h."""
    h = grid.h
    xn, yn = grid.node_xy()
    xc, yc = grid.cell_centers()
    topology = cut_grid(grid)
    corner = topology.cell_dofs
    phi = np.ones(grid.n_nodes)
    member_vals = []
    member_cells = []
    max_grads = []
    bounds = []
    for mem in cover.members:
        if mem.scale < 4 * h * (1 - 1e-9):
            raise UnresolvableCover(
                f"member scale {mem.scale:.4g} below resolvable floor {4 * h:.4g}"
            )
        vals = _smoothstep(mem.metric(xn, yn) - 1.0)
        member_vals.append(vals)
        member_cells.append(vals[corner].mean(axis=1))
        phi *= vals
        # measured gradient of the discrete nodal ramp, on this member's cells
        g = cell_gradients(topology, vals)
        local = mem.metric(xc, yc) < 2.5
        max_grads.append(float(np.hypot(g[:, 0], g[:, 1])[local].max(initial=0.0)))
        bounds.append(mem.grad_bound())
    cell_phi = phi[corner].mean(axis=1)
    return CutoffField(grid, cover, phi, cell_phi, member_vals, member_cells, max_grads,
                       bounds)


# ---------------------------------------------------------------------------
# correctors
# ---------------------------------------------------------------------------


@dataclass
class Collar:
    """Annular collar of one cover member, as a cell/node index set."""

    member_index: int
    cells: np.ndarray        # cell ids with 0 < phi_member < 1
    nodes: np.ndarray        # dofs incident to those cells
    constrained: np.ndarray  # collar nodes carrying the Dirichlet datum
    case: str


def member_collar(phi: CutoffField, member_index: int, base_field: ScalarField) -> Collar:
    """Collar cells/nodes of one member, with its boundary-case classification."""
    grid = phi.grid
    cell_phi = phi.member_cell_values[member_index]
    cells = np.nonzero((cell_phi > _EPS) & (cell_phi < 1.0 - _EPS))[0]
    nodes = np.unique(grid.cell_corner_nodes()[cells].ravel())
    constrained_all = np.asarray(base_field.constrained)
    constrained = np.intersect1d(nodes, constrained_all)
    on_boundary = np.intersect1d(nodes, grid.boundary_nodes())
    if len(on_boundary) == 0:
        case = INTERIOR
    elif len(constrained) == 0:
        case = NEUMANN
    elif len(np.setdiff1d(on_boundary, constrained_all)) == 0:
        case = DIRICHLET
    else:
        case = MIXED
    return Collar(member_index, cells, nodes, constrained, case)


@dataclass
class Corrector:
    """Collar field eta = |grad v|^(p-2) grad v with div eta = -div(phi sigma)."""

    collar: Collar
    eta: np.ndarray          # (len(cells), 2)
    energy_ratio: float      # int |eta|^q / int |sigma|^q over the collar
    compat_defect: float
    iterations: int          # Newton steps; CG iterations when p = 2
    inner_iterations: int    # all CG iterations, the Newton warm start included
    v: np.ndarray = field(repr=False, default=None)


def _collar_null_vectors(topology, collar, unknowns):
    """Orthonormal {1, checkerboard} per connected component of the collar."""
    n = len(unknowns)
    pos = np.full(topology.n_dofs, -1)
    pos[unknowns] = np.arange(n)
    cd = pos[topology.cell_dofs[collar.cells]]
    rows, cols = cd[:, :3].T.ravel(), cd[:, 1:].T.ravel()
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    ncomp, labels = _cs_components(adj, directed=False)
    parity = checkerboard_vector(topology, unknowns)
    out = []
    for c in range(ncomp):
        mask = labels == c
        q1 = mask.astype(float)
        q1 /= np.linalg.norm(q1)
        q2 = np.where(mask, parity, 0.0)
        q2 -= (q2 @ q1) * q1
        nrm = np.linalg.norm(q2)
        if nrm > 1e-12:
            out.append(q2 / nrm)
        out.append(q1)
    return out


def corrector(collar: Collar, sigma: np.ndarray, phi: CutoffField, case: str,
              p: float = 2.0, tol: float = 1e-10, compat_tol: float = 1e-6,
              topology=None) -> Corrector:
    """Solve the collar problem div(|grad v|^(p-2) grad v) = -div(phi sigma).

    The flux condition eta . n = 0 on the collar's interior/Neumann boundary
    is natural in the variational form; v = 0 is imposed on Dirichlet collar
    nodes (cases ``dirichlet`` and ``mixed``); pure-Neumann cases deflate the
    discrete null space and require the data to be compatible.  Raises
    NoConvergence when the Newton solve for p != 2 does not finish.
    """
    if case != collar.case:
        raise ValueError(f"declared case {case!r}, classified {collar.case!r}")
    grid = phi.grid
    if topology is None:
        topology = cut_grid(grid)
    h2 = grid.h ** 2

    # right-hand side: R_a = -<phi sigma, grad hat_a>, global phi
    weighted = phi.cell_values[:, None] * sigma
    R = -scatter_weak_divergence(topology, weighted)

    unknowns = np.setdiff1d(collar.nodes, collar.constrained)
    rhs = R[unknowns]
    deflate = []
    compat_defect = 0.0
    if case in (INTERIOR, NEUMANN):
        deflate = _collar_null_vectors(topology, collar, unknowns)
        scale = np.linalg.norm(rhs) + 1e-300
        compat_defect = max(abs(rhs @ q) for q in deflate) / scale
        if compat_defect > compat_tol:
            raise CompatibilityViolated(
                f"pure-Neumann collar defect {compat_defect:.3e} > {compat_tol:.0e}"
            )

    integrand = ppower_integrand(p)
    v = np.zeros(topology.n_dofs)
    xc, yc = (coord[collar.cells] for coord in grid.cell_centers())
    if p == 2.0:
        v, iters, _ = _solve_quadratic(topology, integrand.cell_metric(xc, yc), v, unknowns,
                                       tol, False, collar.cells, rhs, deflate)
        inner = iters
    else:
        for qv in deflate:
            rhs = rhs - (rhs @ qv) * qv
        sig_scale = max(float(np.abs(sigma[collar.cells]).max(initial=0.0)), 1e-30)
        # looser exits than the bulk solve's: at the floating-point floor the
        # energy stops moving while the gradient sits just above the relative
        # target, and the assembled-tau residual check is the authoritative
        # gate downstream
        v, iters, inner, _ = newton(topology, integrand, v, unknowns,
                                    eps=1e-8 * sig_scale ** (integrand.q - 1.0), tol=tol,
                                    gtol=1e-7, stall_gtol=1e-4, gfloor=0.0,
                                    cells=collar.cells, load=rhs, deflate=deflate)

    gv = cell_gradients(topology, v, cells=collar.cells)
    eta = integrand.grad_f(xc, yc, gv)
    q = integrand.q
    sig_c = sigma[collar.cells]
    num = h2 * float(np.sum(np.linalg.norm(eta, axis=1) ** q))
    den = h2 * float(np.sum(np.linalg.norm(sig_c, axis=1) ** q))
    ratio = num / den if den > 0 else 0.0
    return Corrector(collar, eta, ratio, compat_defect, iters, inner, v)


# ---------------------------------------------------------------------------
# admissible stress and the duality gap
# ---------------------------------------------------------------------------


@dataclass
class AdmissibleStress:
    """Cell field tau pairing to ~0 with all free hat functions of the cut
    topology: discretely divergence-free off the crack and tangent to it."""

    tau: np.ndarray
    residual: float            # normalized max over free dofs
    residual_raw: np.ndarray
    crack: CrackSet
    topology: object


def admissibility_residual(topology, tau, constrained):
    r = scatter_weak_divergence(topology, tau)
    free = np.ones(topology.n_dofs, dtype=bool)
    free[constrained] = False
    scale = topology.grid.h * max(1.0, float(np.abs(tau).max(initial=0.0)))
    return float(np.abs(r[free]).max(initial=0.0) / scale), r


def assemble_tau(base_stress: StressField, phi: CutoffField, correctors,
                 crack: CrackSet, residual_tol: float = 1e-6) -> AdmissibleStress:
    """tau = phi sigma + sum eta, checked against the cut-topology test basis."""
    grid = phi.grid
    tau = phi.cell_values[:, None] * base_stress.sigma
    for corr in correctors:
        tau[corr.collar.cells] += corr.eta
    topology = cut_grid(grid, crack)
    res, raw = admissibility_residual(topology, tau, topology.constrained_dofs())
    if res > residual_tol:
        raise ResidualTooLarge(
            f"admissibility residual {res:.3e} exceeds {residual_tol:.0e}"
        )
    return AdmissibleStress(tau, res, raw, crack, topology)


def duality_gap(tau: AdmissibleStress, base_stress: StressField, cells=None) -> float:
    """Cell quadrature of (tau - sigma) . (grad_fstar(tau) - grad_fstar(sigma))
    over cells (all by default), with the base field's conjugate gradient.

    Nonnegative by monotonicity of the conjugate gradient; with f = |xi|^2
    it reduces to 1/2 int |tau - sigma|^2.
    """
    grid = base_stress.field.grid
    grad_fstar = base_stress.field.integrand.grad_fstar
    xc, yc = grid.cell_centers()
    t, s = tau.tau, base_stress.sigma
    if cells is not None:
        xc, yc, t, s = xc[cells], yc[cells], t[cells], s[cells]
    dg = grad_fstar(xc, yc, t) - grad_fstar(xc, yc, s)
    return grid.h ** 2 * float(np.einsum("ci,ci->", t - s, dg))


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


@dataclass
class MemberBound:
    member_index: int
    case: str
    n_collar_cells: int
    energy_ratio: float
    compat_defect: float
    gap_contribution: float
    holder_terms: dict


@dataclass
class ReleaseBoundReport:
    bound: float
    h1: float
    cover: Cover
    members: list
    tau_residual: float
    constant_C: float


def _holder_terms(sigma, eta, cells, h2, q):
    """The six split integrals bounding each member's gap contribution."""
    s = np.linalg.norm(sigma[cells], axis=1)
    e = np.linalg.norm(eta, axis=1)
    return {
        "sigma_q": h2 * float(np.sum(s ** q)),
        "eta_q": h2 * float(np.sum(e ** q)),
        "eta_sigma_qm1": h2 * float(np.sum(e * s ** (q - 1.0))),
        "eta_qm1_sigma": h2 * float(np.sum(e ** (q - 1.0) * s)),
        "sigma_1": h2 * float(np.sum(s)),
        "eta_1": h2 * float(np.sum(e)),
    }


def release_bound(grid: Grid, integrand: Integrand, psi, crack: CrackSet, m: int,
                  base=None, tol: float = 1e-10, residual_tol: float = 1e-6,
                  compat_tol: float = 1e-6) -> ReleaseBoundReport:
    """Certified upper bound on the bulk-energy release of a crack.

    Pipeline: cover -> cutoff -> correctors -> tau -> duality gap.  ``base``
    may carry a precomputed (field, stress) pair of the uncracked problem.
    """
    if base is None:
        base_field, _ = solve(grid, integrand, psi, tol=tol)
        base_stress = stress(base_field)
    else:
        base_field, base_stress = base

    if crack.is_empty:
        cov = cover_crack(crack, grid.domain, m)
        phi = cutoff(cov, grid)
        tau = assemble_tau(base_stress, phi, [], crack,
                           residual_tol=max(residual_tol, 1e-5))
        return ReleaseBoundReport(0.0, 0.0, cov, [], tau.residual, 0.0)

    cover = cover_crack(crack, grid.domain, m)
    phi = cutoff(cover, grid)
    topology0 = base_field.topology
    correctors = []
    h2 = grid.h ** 2
    q = integrand.q
    for idx in range(len(cover.members)):
        col = member_collar(phi, idx, base_field)
        corr = corrector(col, base_stress.sigma, phi, col.case, p=integrand.p,
                         tol=tol, compat_tol=compat_tol, topology=topology0)
        correctors.append(corr)
    tau = assemble_tau(base_stress, phi, correctors, crack, residual_tol)
    gap = duality_gap(tau, base_stress)

    members = []
    for idx, corr in enumerate(correctors):
        local = np.nonzero(phi.member_cell_values[idx] < 1.0 - _EPS)[0]
        members.append(
            MemberBound(
                member_index=idx,
                case=corr.collar.case,
                n_collar_cells=len(corr.collar.cells),
                energy_ratio=corr.energy_ratio,
                compat_defect=corr.compat_defect,
                gap_contribution=duality_gap(tau, base_stress, cells=local),
                holder_terms=_holder_terms(base_stress.sigma, corr.eta,
                                           corr.collar.cells, h2, q),
            )
        )
    return ReleaseBoundReport(gap, crack.h1(), cover, members, tau.residual,
                              cover.constant_C)


# ---------------------------------------------------------------------------
# jump-flux bound (SBV estimate)
# ---------------------------------------------------------------------------


def jump_flux_bound(base_stress: StressField, cracked_field: ScalarField,
                    crack: CrackSet) -> float:
    """Edge quadrature of sigma . n times the jump of the cracked solution.

    sigma is the continuous (uncracked) stress, averaged onto each cut edge;
    the jump is averaged over the edge endpoints.  Boundary-lying crack edges
    use the datum as the exterior trace.  Dominates the measured release for
    smooth stresses.
    """
    grid = crack.grid
    topo = cracked_field.topology
    u = cracked_field.values
    psi = cracked_field.psi
    total = 0.0
    for e in crack.sorted_edges():
        flank = grid.edge_flank_cells(e)
        nvec = grid.edge_normal(e)
        sig = np.zeros(2)
        cnt = 0
        for c in flank:
            if c is not None:
                sig += base_stress.sigma[c]
                cnt += 1
        sig /= max(cnt, 1)
        sn = sig @ nvec
        (a_m, a_p), (b_m, b_p) = topo.edge_side_dofs(e)
        na, nb = grid.edge_nodes(e)

        def side_value(dof, node):
            if dof is not None:
                return u[dof]
            x, y = grid.node_xy(np.array([node]))
            return float(np.asarray(psi(x, y)).ravel()[0])

        jump_a = side_value(a_p, na) - side_value(a_m, na)
        jump_b = side_value(b_p, nb) - side_value(b_m, nb)
        total += grid.h * sn * 0.5 * (jump_a + jump_b)
    return float(total)
