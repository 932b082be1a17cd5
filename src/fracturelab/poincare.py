"""Optimal Poincare and Poincare-Korn constants on Lipschitz graph domains.

Domains Q_f = {0 <= x <= 1, 0 <= y <= f(x)} with f: [0,1] -> [1, M] an
L-Lipschitz profile, meshed by vertical scaling of a reference grid
(isoparametric Q1 quadrilaterals, 2x2 Gauss).  The optimal constant of each
inequality is the reciprocal of the smallest constrained eigenvalue of the
stiffness/mass pencil, computed by inverse iteration with the constraints
(mean value, rigid motions) projected out of every iterate.

Cases: "i"  scalar, u = 0 on the base;
       "ii" scalar, zero mean;
       "iii" vector, u = 0 on the base, |e(u)|^2 stiffness;
       "iv"  vector, orthogonal to rigid motions, |e(u)|^2 stiffness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import EigenNoConvergence

CASES = ("i", "ii", "iii", "iv")

_GP = 1.0 / math.sqrt(3.0)
_XI = np.array([-1.0, 1.0, -1.0, 1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass
class GraphDomain:
    """Sampled profile with its mesh resolution; coordinates may be rescaled."""

    profile_x: np.ndarray
    profile_f: np.ndarray
    L: float
    M: float
    nx: int
    ny: int
    scale: float = 1.0

    @classmethod
    def build(cls, profile, L, M, nx, ny=None, scale=1.0):
        """profile: callable on [0,1] or an array of nx+1 samples."""
        xs = np.linspace(0.0, 1.0, nx + 1)
        fs = np.asarray(profile(xs) if callable(profile) else profile, dtype=float)
        if fs.shape != xs.shape:
            raise ValueError("profile samples must match nx+1 grid columns")
        if fs.min() < 1.0 - 1e-9 or fs.max() > M + 1e-9:
            raise ValueError("profile must take values in [1, M]")
        dfd = np.abs(np.diff(fs)) / np.diff(xs)
        if dfd.max(initial=0.0) > L + 1e-6:
            raise ValueError(f"profile violates the Lipschitz bound L={L}")
        if ny is None:
            ny = int(math.ceil(nx * fs.max()))
        return cls(xs, fs, L, M, nx, int(ny), scale)

    def node_coords(self):
        """Mapped mesh nodes (i + j*(nx+1) indexing)."""
        i = np.arange(self.nx + 1)
        j = np.arange(self.ny + 1)
        X = np.repeat(self.profile_x[None, :], self.ny + 1, axis=0)
        Y = (j[:, None] / self.ny) * self.profile_f[None, :]
        return (self.scale * X).ravel(), (self.scale * Y).ravel()

    def cell_corners(self):
        i, j = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="ij")
        n00 = i.ravel() + j.ravel() * (self.nx + 1)
        return np.stack([n00, n00 + 1, n00 + self.nx + 1, n00 + self.nx + 2], axis=1)

    def base_nodes(self):
        return np.arange(self.nx + 1)

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)


def random_profile(L, M, rng):
    """Piecewise-linear L-Lipschitz profile in [1, M] (clamped random walk
    over 8 equispaced knots)."""
    xs = np.linspace(0.0, 1.0, 8)
    vals = np.empty(len(xs))
    vals[0] = rng.uniform(1.0, M)
    for k in range(1, len(xs)):
        step = rng.uniform(-L, L) * (xs[k] - xs[k - 1])
        vals[k] = min(max(vals[k - 1] + step, 1.0), M)
    return lambda x: np.interp(x, xs, vals)


# ---------------------------------------------------------------------------
# Q1 assembly (2x2 Gauss, isoparametric)
# ---------------------------------------------------------------------------


def _gauss_shape():
    pts = [(-_GP, -_GP), (_GP, -_GP), (-_GP, _GP), (_GP, _GP)]
    N, dNxi, dNeta = [], [], []
    for xi, eta in pts:
        N.append(0.25 * (1 + _XI * xi) * (1 + _ETA * eta))
        dNxi.append(0.25 * _XI * (1 + _ETA * eta))
        dNeta.append(0.25 * _ETA * (1 + _XI * xi))
    return np.array(N), np.array(dNxi), np.array(dNeta)  # (4gp, 4)


def _cell_geometry(gd: GraphDomain):
    X, Y = gd.node_coords()
    corners = gd.cell_corners()
    xe = X[corners]  # (ncell, 4)
    ye = Y[corners]
    N, dNxi, dNeta = _gauss_shape()
    # physical shape gradients and weights per gauss point
    grads = np.empty((len(corners), 4, 4, 2))  # (cell, gp, corner, xy)
    wdet = np.empty((len(corners), 4))
    for g in range(4):
        J11 = xe @ dNxi[g]
        J12 = ye @ dNxi[g]
        J21 = xe @ dNeta[g]
        J22 = ye @ dNeta[g]
        det = J11 * J22 - J12 * J21
        inv11, inv12 = J22 / det, -J12 / det
        inv21, inv22 = -J21 / det, J11 / det
        gx = inv11[:, None] * dNxi[g][None, :] + inv12[:, None] * dNeta[g][None, :]
        gy = inv21[:, None] * dNxi[g][None, :] + inv22[:, None] * dNeta[g][None, :]
        grads[:, g, :, 0] = gx
        grads[:, g, :, 1] = gy
        wdet[:, g] = det
    return corners, N, grads, wdet


def assemble_scalar(gd: GraphDomain):
    """Stiffness int grad u . grad v and consistent mass int u v."""
    corners, N, grads, wdet = _cell_geometry(gd)
    kloc = np.einsum("cgia,cgja,cg->cij", grads, grads, wdet)
    mloc = np.einsum("gi,gj,cg->cij", N, N, wdet)
    rows = np.repeat(corners, 4, axis=1).ravel()
    cols = np.tile(corners, (1, 4)).ravel()
    n = gd.n_nodes
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    Mm = sp.coo_matrix((mloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, Mm


def assemble_vector(gd: GraphDomain):
    """Korn stiffness int |e(u)|^2 and vector mass (dof = 2*node + component)."""
    corners, N, grads, wdet = _cell_geometry(gd)
    ncell = len(corners)
    dofs = np.empty((ncell, 8), dtype=int)
    dofs[:, 0::2] = 2 * corners
    dofs[:, 1::2] = 2 * corners + 1
    kloc = np.zeros((ncell, 8, 8))
    mloc = np.zeros((ncell, 8, 8))
    for g in range(4):
        gx = grads[:, g, :, 0]
        gy = grads[:, g, :, 1]
        B = np.zeros((ncell, 3, 8))
        B[:, 0, 0::2] = gx
        B[:, 1, 1::2] = gy
        B[:, 2, 0::2] = gy
        B[:, 2, 1::2] = gx
        w3 = np.array([1.0, 1.0, 0.5])  # |e|^2 = e11^2 + e22^2 + (shear)^2/2
        kloc += np.einsum("cai,a,caj,c->cij", B, w3, B, wdet[:, g])
        Nv = np.zeros((2, 8))
        Nv[0, 0::2] = N[g]
        Nv[1, 1::2] = N[g]
        mloc += np.einsum("ai,aj->ij", Nv, Nv)[None, :, :] * wdet[:, g, None, None]
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    n = 2 * gd.n_nodes
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    Mm = sp.coo_matrix((mloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, Mm


def rigid_motion_basis(gd: GraphDomain):
    """Nodal rigid motions a + B x (B skew): two translations and a rotation."""
    X, Y = gd.node_coords()
    n = gd.n_nodes
    r = np.zeros((3, 2 * n))
    r[0, 0::2] = 1.0
    r[1, 1::2] = 1.0
    r[2, 0::2] = -Y
    r[2, 1::2] = X
    return r


# ---------------------------------------------------------------------------
# inverse iteration with constraint projection
# ---------------------------------------------------------------------------


@dataclass
class ConstantReport:
    case: str
    C: float
    extremal: np.ndarray
    resolution: tuple
    iterations: int
    constraint_residual: float
    domain: GraphDomain


def _inverse_iteration(K, Mm, constraints):
    """Smallest eigenvalue of K x = lambda M x on the M-orthogonal complement
    of the constraint vectors (which span the kernel of K when present), to
    a relative change of 1e-10 within 3000 iterations from a seed-0 start."""
    tol, maxiter = 1e-10, 3000
    n = K.shape[0]
    # M-orthonormalize the constraint basis
    basis = []
    for c in constraints:
        v = c.astype(float).copy()
        for b in basis:
            v -= (b @ (Mm @ v)) * b
        nrm = math.sqrt(v @ (Mm @ v))
        if nrm > 1e-14:
            basis.append(v / nrm)

    def project(x):
        for b in basis:
            x = x - (b @ (Mm @ x)) * b
        return x

    scale = K.diagonal().sum() / max(Mm.diagonal().sum(), 1e-300)
    shift = 1e-8 * scale if basis else 0.0
    lu = splu((K + shift * Mm).tocsc())
    rng = np.random.default_rng(0)
    x = project(rng.standard_normal(n))
    x /= math.sqrt(x @ (Mm @ x))
    lam = x @ (K @ x)
    for it in range(1, maxiter + 1):
        y = lu.solve(Mm @ x)
        y = project(y)
        nrm = math.sqrt(y @ (Mm @ y))
        if nrm == 0.0:
            raise EigenNoConvergence("inverse iteration collapsed onto the kernel")
        x = y / nrm
        lam_new = x @ (K @ x)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return float(lam_new), x, it
        lam = lam_new
    raise EigenNoConvergence(f"no convergence in {maxiter} iterations")


def optimal_constant(gd: GraphDomain, case: str) -> ConstantReport:
    """Optimal constant C with ||u||^2 <= C ||grad u||^2 (or ||e(u)||^2).

    C is the reciprocal of the smallest eigenvalue of the constrained
    Rayleigh quotient; the extremal field is returned on the full dof set.
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    if case in ("i", "ii"):
        K, Mm = assemble_scalar(gd)
        if case == "i":
            fixed = gd.base_nodes()
        else:
            fixed = np.empty(0, dtype=int)
        constraints = [np.ones(K.shape[0])] if case == "ii" else []
    else:
        K, Mm = assemble_vector(gd)
        if case == "iii":
            base = gd.base_nodes()
            fixed = np.concatenate([2 * base, 2 * base + 1])
        else:
            fixed = np.empty(0, dtype=int)
        constraints = list(rigid_motion_basis(gd)) if case == "iv" else []

    n = K.shape[0]
    free = np.setdiff1d(np.arange(n), fixed)
    Kf = K[free][:, free]
    Mf = Mm[free][:, free]
    cons_f = [c[free] for c in constraints]
    lam, xf, iters = _inverse_iteration(Kf, Mf, cons_f)
    x = np.zeros(n)
    x[free] = xf
    # constraint residual in the M inner product, normalized
    resid = 0.0
    for c in constraints:
        num = abs(c @ (Mm @ x))
        den = math.sqrt((c @ (Mm @ c)) * (x @ (Mm @ x)))
        resid = max(resid, num / den)
    return ConstantReport(case, 1.0 / lam, x, (gd.nx, gd.ny), iters, resid, gd)


# ---------------------------------------------------------------------------
# uniformity sweep over random profiles
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    case: str
    L: float
    M: float
    constants: list
    max_C: float
    max_first_half: float

    def stability_ratio(self):
        """max over all samples relative to max over the first half."""
        return self.max_C / self.max_first_half if self.max_first_half > 0 else math.inf


def uniformity_sweep(L, M, samples: int, case: str, nx: int = 48,
                     seed: int = 0) -> SweepReport:
    """Max optimal constant over random L-Lipschitz profiles in [1, M].

    Sample k always uses the k-th spawned seed, so growing ``samples`` keeps
    earlier profiles identical (the doubling-stability check relies on it).
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    seeds = np.random.SeedSequence(seed).spawn(samples)

    def one(k):
        rng = np.random.default_rng(seeds[k])
        if L == 0.0:
            prof = lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 if M == 1.0 else rng.uniform(1.0, M))
        else:
            prof = random_profile(L, M, rng)
        gd = GraphDomain.build(prof, L, M, nx)
        return optimal_constant(gd, case).C

    constants = [one(k) for k in range(samples)]
    arr = np.asarray(constants)
    max_c = float(arr.max())
    if not math.isfinite(max_c):
        raise EigenNoConvergence("sweep produced a non-finite constant")
    half = max(1, samples // 2)
    return SweepReport(case, L, M, list(map(float, constants)), max_c,
                       float(arr[:half].max()))
