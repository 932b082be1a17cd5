"""Local energy concentration and weak/critical/strong classification.

The scaling of r -> int_{B_r(x)} |grad u|^p decides whether small cracks pay
off near x: exponents above 1 make the local energy negligible against the
perimeter of B_r (weak), below 1 the ratio diverges (strong).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import RADIAL_SOFT, RADIAL_STIFF, _norm
from .errors import DegenerateFit, InvalidProbe, RadiusUnresolvable
from .solver import ScalarField

WEAK = "weak"
CRITICAL = "critical"
STRONG = "strong"

DEFAULT_MARGIN = 0.1


def local_energy(field: ScalarField, x, r: float) -> float:
    """Sum of cell energies |grad u|^p over cells with centers in B_r(x)."""
    grid = field.grid
    px, py = float(x[0]), float(x[1])
    if not grid.domain.contains(px, py):
        raise InvalidProbe(f"probe ({px}, {py}) outside the closed domain")
    if r <= 2 * grid.h:
        raise RadiusUnresolvable(f"radius {r:g} not resolvable (needs r > 2h = {2*grid.h:g})")
    xc, yc = grid.cell_centers()
    inside = (xc - px) ** 2 + (yc - py) ** 2 <= r * r
    g = field.gradients()[inside]
    p = field.integrand.p
    return grid.h ** 2 * float(np.sum(_norm(g) ** p))


def default_radii(field: ScalarField, x):
    """Geometric ladder r_k = r_max 2^-k, k < 6, inside the resolvable window."""
    grid = field.grid
    px, py = float(x[0]), float(x[1])
    size = min(grid.domain.width, grid.domain.height)
    r_max = min(grid.domain.distance_to_boundary(px, py), 0.25 * size)
    radii = [r_max * 2.0 ** (-k) for k in range(6)]
    return [r for r in radii if r > 2 * grid.h]


def fit_exponent(field: ScalarField, x, radii):
    """Least-squares slope/intercept of log local_energy against log r.

    Returns (alpha, C) with local_energy ~ C r^alpha.
    """
    return _fit_ladder(field, x, radii)[2:]


def _fit_ladder(field: ScalarField, x, radii):
    """(radii largest first, their local energies, alpha, C) of fit_exponent."""
    radii = sorted(radii, reverse=True)
    if len(radii) < 4:
        raise RadiusUnresolvable(f"need >= 4 resolvable radii, got {len(radii)}")
    energies = [local_energy(field, x, r) for r in radii]
    if any(e <= 0.0 for e in energies):
        raise DegenerateFit("some local energies vanish; nothing to fit")
    slope, intercept = np.polyfit(np.log(radii), np.log(energies), 1)
    return radii, energies, float(slope), float(math.exp(intercept))


@dataclass
class ProbeReport:
    x: float
    y: float
    radii: list
    energies: list
    alpha: float
    C: float
    classification: str
    delta: float  # max local_energy / r over the ladder (critical coefficient)


@dataclass
class SingularityReport:
    probes: list

    def classes(self):
        return [p.classification for p in self.probes]


def classify(field: ScalarField, probes, margin: float = DEFAULT_MARGIN) -> SingularityReport:
    """Classify each probe over its default_radii ladder: weak (alpha >=
    1+margin), strong (alpha <= 1-margin), critical otherwise, with the
    small-coefficient delta reported."""
    out = []
    for pt in probes:
        radii, energies, alpha, C = _fit_ladder(field, pt, default_radii(field, pt))
        delta = max(e / r for e, r in zip(energies, radii))
        if alpha >= 1.0 + margin:
            cls = WEAK
        elif alpha <= 1.0 - margin:
            cls = STRONG
        else:
            cls = CRITICAL
        out.append(ProbeReport(float(pt[0]), float(pt[1]), radii, energies, alpha, C,
                               cls, delta))
    return SingularityReport(out)


# ---------------------------------------------------------------------------
# closed-form reference for the radially anisotropic composite
# ---------------------------------------------------------------------------


def meyers_gamma(K: float, orientation: str = RADIAL_STIFF) -> float:
    """Exponent of the radial solution u = r^gamma cos(theta).

    Substituting u into div(A grad u) = 0 with A = a_r n(x)n(x) + a_t t(x)t(x)
    gives the radial equation gamma^2 a_r = a_t, i.e. gamma = sqrt(a_t / a_r):
    gamma = 1/K for the stiff-radial orientation (singular gradient for K > 1)
    and gamma = K for the soft-radial one (bounded gradient).
    """
    if K < 1.0:
        raise ValueError("need K >= 1")
    if orientation == RADIAL_STIFF:
        return 1.0 / K
    if orientation == RADIAL_SOFT:
        return float(K)
    raise ValueError(f"unknown orientation {orientation!r}")


def meyers_reference(K: float, orientation: str, r: float) -> float:
    """Exact int_{B_r(0)} |grad u_gamma|^2 dx for u_gamma = r^gamma cos(theta).

    |grad u|^2 = r^(2 gamma - 2) (gamma^2 cos^2 + sin^2); integrating over the
    disk gives pi (1 + gamma^2) / (2 gamma) * r^(2 gamma).  Validated against
    high-resolution quadrature in the test suite before use as an oracle.
    """
    gamma = meyers_gamma(K, orientation)
    return math.pi * (1.0 + gamma * gamma) / (2.0 * gamma) * r ** (2.0 * gamma)


def meyers_profile(K: float, orientation: str = RADIAL_STIFF):
    """The datum trace r^gamma cos(theta) as a vectorized callable."""
    gamma = meyers_gamma(K, orientation)

    def psi(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rr = np.hypot(x, y)
        th = np.arctan2(y, x)
        return np.where(rr == 0.0, 0.0, rr ** gamma * np.cos(th))

    return psi
