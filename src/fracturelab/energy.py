"""Bulk energy densities f(x, xi), their gradients and convex conjugates.

Two integrand kinds cover all experiments while keeping conjugates in
closed form:

* ``ppower``:    f = (1/p) c(x) |xi|^p with a scalar coefficient c > 0,
* ``quadratic``: f = A(x) xi . xi with A(x) symmetric positive definite.

For p-power the conjugate is f* = (1/q) c^(1-q) |zeta|^q with q = p/(p-1);
for the quadratic form f* = (1/4) A^(-1) zeta . zeta.  Both live on
Integrand, with the Fenchel and gradient-inversion residuals that check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedKind

PPOWER = "ppower"
QUADRATIC = "quadratic"

RADIAL_SOFT = "radial_soft"    # radial eigenvalue 1/K, tangential K
RADIAL_STIFF = "radial_stiff"  # radial eigenvalue K,   tangential 1/K


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantCoefficient:
    value: float

    def scalar(self, x, y):
        return np.full(np.broadcast(x, y).shape, float(self.value))

    def bounds(self):
        return self.value, self.value


@dataclass(frozen=True)
class CheckerboardCoefficient:
    """Piecewise-constant c(x) alternating on square blocks of a given size."""

    c_even: float
    c_odd: float
    block: float
    origin: tuple = (0.0, 0.0)

    def scalar(self, x, y):
        ix = np.floor((np.asarray(x) - self.origin[0]) / self.block).astype(int)
        iy = np.floor((np.asarray(y) - self.origin[1]) / self.block).astype(int)
        return np.where((ix + iy) % 2 == 0, self.c_even, self.c_odd)

    def bounds(self):
        return min(self.c_even, self.c_odd), max(self.c_even, self.c_odd)


@dataclass(frozen=True)
class ConstantMatrixCoefficient:
    a11: float
    a22: float
    a12: float = 0.0

    def matrix(self, x, y):
        n = np.broadcast(x, y).size
        A = np.empty((n, 2, 2))
        A[:, 0, 0] = self.a11
        A[:, 1, 1] = self.a22
        A[:, 0, 1] = A[:, 1, 0] = self.a12
        return A

    def bounds(self):
        tr = self.a11 + self.a22
        det = self.a11 * self.a22 - self.a12 * self.a12
        disc = math.sqrt(max(tr * tr / 4 - det, 0.0))
        return tr / 2 - disc, tr / 2 + disc


@dataclass(frozen=True)
class MeyersCoefficient:
    """Radially anisotropic unit-determinant field A(x) with eigenvalues
    {K, 1/K} in the radial/tangential frame at x; identity at the origin
    (removable point)."""

    K: float
    orientation: str = RADIAL_STIFF

    def __post_init__(self):
        if self.K < 1.0:
            raise ValueError("need K >= 1")
        if self.orientation not in (RADIAL_SOFT, RADIAL_STIFF):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @property
    def a_radial(self):
        return self.K if self.orientation == RADIAL_STIFF else 1.0 / self.K

    def matrix(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r2 = x * x + y * y
        safe = np.where(r2 == 0.0, 1.0, r2)
        nx = np.where(r2 == 0.0, 1.0, x / np.sqrt(safe))
        ny = np.where(r2 == 0.0, 0.0, y / np.sqrt(safe))
        ar = self.a_radial
        at = 1.0 / ar
        A = np.empty(x.shape + (2, 2))
        A[..., 0, 0] = ar * nx * nx + at * ny * ny
        A[..., 1, 1] = ar * ny * ny + at * nx * nx
        A[..., 0, 1] = A[..., 1, 0] = (ar - at) * nx * ny
        A[r2 == 0.0] = np.eye(2)
        return A

    def bounds(self):
        return 1.0 / self.K, self.K


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Integrand:
    """Bulk density with verified p-growth constants.

    growth_lower/growth_upper are the alpha/beta of the growth sandwich
    alpha |xi|^p <= f(x, xi) <= beta (|xi|^p + 1).
    """

    kind: str
    p: float
    coeff: object
    growth_lower: float
    growth_upper: float

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError("need p in (1, inf)")
        if self.kind not in (PPOWER, QUADRATIC):
            raise UnsupportedKind(self.kind)
        if self.kind == QUADRATIC and self.p != 2.0:
            raise ValueError("quadratic integrands have p = 2")

    @property
    def q(self):
        return self.p / (self.p - 1.0)

    @property
    def is_quadratic_form(self):
        """True when f is a quadratic form in xi (p = 2 paths apply)."""
        return self.kind == QUADRATIC or self.p == 2.0

    # --- evaluation (x, y broadcastable arrays; xi shape (..., 2)) ----------

    def eval_f(self, x, y, xi):
        xi = np.asarray(xi, dtype=float)
        if self.kind == PPOWER:
            return self._ppower_f(self.coeff.scalar(x, y), np.linalg.norm(xi, axis=-1))
        A = self.coeff.matrix(x, y)
        return np.einsum("...ij,...i,...j->...", A, xi, xi)

    def grad_f(self, x, y, xi):
        xi = np.asarray(xi, dtype=float)
        if self.kind == PPOWER:
            return self._ppower_grad(self.coeff.scalar(x, y), np.linalg.norm(xi, axis=-1), xi)
        A = self.coeff.matrix(x, y)
        return 2.0 * np.einsum("...ij,...j->...i", A, xi)

    def eval_f_and_grad(self, x, y, xi):
        """(eval_f, grad_f) with one coefficient and one |xi| evaluation."""
        xi = np.asarray(xi, dtype=float)
        if self.kind == PPOWER:
            c = self.coeff.scalar(x, y)
            norm = np.linalg.norm(xi, axis=-1)
            return self._ppower_f(c, norm), self._ppower_grad(c, norm, xi)
        return self.eval_f(x, y, xi), self.grad_f(x, y, xi)

    def _ppower_f(self, c, norm):
        return c / self.p * norm ** self.p

    def _ppower_grad(self, c, norm, xi):
        fac = np.power(norm, self.p - 2.0, out=np.zeros_like(norm), where=norm > 0.0)
        return (c * fac)[..., None] * xi

    def eval_fstar(self, x, y, zeta):
        zeta = np.asarray(zeta, dtype=float)
        if self.kind == PPOWER:
            c = self.coeff.scalar(x, y)
            q = self.q
            norm = np.linalg.norm(zeta, axis=-1)
            return c ** (1.0 - q) / q * norm ** q
        A = self.coeff.matrix(x, y)
        Ainv = np.linalg.inv(A)
        return 0.25 * np.einsum("...ij,...i,...j->...", Ainv, zeta, zeta)

    def grad_fstar(self, x, y, zeta):
        zeta = np.asarray(zeta, dtype=float)
        if self.kind == PPOWER:
            c = self.coeff.scalar(x, y)
            q = self.q
            norm = np.linalg.norm(zeta, axis=-1)
            fac = np.power(norm, q - 2.0, out=np.zeros_like(norm), where=norm > 0.0)
            return (c ** (1.0 - q) * fac)[..., None] * zeta
        A = self.coeff.matrix(x, y)
        Ainv = np.linalg.inv(A)
        return 0.5 * np.einsum("...ij,...j->...i", Ainv, zeta)

    def fenchel_residual(self, x, y, xi):
        """f(xi) + f*(grad f(xi)) - xi . grad f(xi), elementwise; zero to
        floating-point accuracy (Fenchel's identity)."""
        g = self.grad_f(x, y, xi)
        lhs = self.eval_f(x, y, xi) + self.eval_fstar(x, y, g)
        return lhs - np.einsum("...i,...i->...", np.asarray(xi, dtype=float), g)

    def inversion_residual(self, x, y, xi):
        """max-norm of grad_fstar(grad_f(xi)) - xi, elementwise."""
        back = self.grad_fstar(x, y, self.grad_f(x, y, xi))
        return np.abs(back - np.asarray(xi, dtype=float)).max(axis=-1)

    def cell_metric(self, x, y):
        """M(x) with f(x, xi) = 1/2 xi . M xi, valid on quadratic-form paths."""
        if not self.is_quadratic_form:
            raise UnsupportedKind("cell_metric needs a quadratic-form integrand")
        if self.kind == PPOWER:
            c = self.coeff.scalar(x, y)
            M = np.zeros(c.shape + (2, 2))
            M[..., 0, 0] = c
            M[..., 1, 1] = c
            return M
        return 2.0 * self.coeff.matrix(x, y)


def ppower_integrand(p, coeff=1.0):
    """f = (1/p) c(x) |xi|^p; scalar coefficient, constant by default."""
    if not hasattr(coeff, "scalar"):
        coeff = ConstantCoefficient(float(coeff))
    lo, hi = coeff.bounds()
    if lo <= 0:
        raise ValueError("coefficient must be positive")
    return Integrand(PPOWER, float(p), coeff, lo / p, hi / p)


def quadratic_integrand(coeff):
    """f = A(x) xi . xi for a matrix coefficient field."""
    lo, hi = coeff.bounds()
    if lo <= 0:
        raise ValueError("matrix coefficient must be positive definite")
    return Integrand(QUADRATIC, 2.0, coeff, lo, hi)


def meyers_integrand(K, orientation=RADIAL_STIFF):
    """Radially anisotropic quadratic integrand with eigenvalues {K, 1/K}.

    ``radial_stiff`` puts the large eigenvalue K on the radial direction,
    which is the orientation whose solution r^(1/K) cos(theta) concentrates
    energy at the origin (strong singularity for K > 2, critical at K = 2);
    ``radial_soft`` is the transpose arrangement with the smooth solution
    r^K cos(theta).  See ``singularity.meyers_reference``.
    """
    return quadratic_integrand(MeyersCoefficient(float(K), orientation))


def laplace_integrand():
    """f = |xi|^2, i.e. p-power with p = 2 and c = 2."""
    return ppower_integrand(2.0, 2.0)
