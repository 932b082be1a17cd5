"""Brute-force minimization of the total energy over finite crack families.

Families are finite and declared up front; candidate solves are independent
and cached by effective edges (the part of a crack the Dirichlet datum
reaches, see geometry.effective_crack), so cracks that differ only inside
regions the datum cannot reach share one solve.  Every reduction is a
deterministic tolerance-then-enumeration-order argmin, and every batch is
solved serially in enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyFamily, InvalidProbe
from .geometry import CrackSet, Grid, cut_grid, effective_crack
from .solver import ScalarField, _Uncracked, solve

ARGMIN_RTOL = 1e-9


def argmin_with_tolerance(values):
    """Index of the first value within ARGMIN_RTOL of the minimum.

    The tolerance band makes the selection stable under exact energy
    rescalings (datum scaling) despite floating-point noise.
    """
    values = np.asarray(values, dtype=float)
    vmin = values.min()
    band = vmin + ARGMIN_RTOL * (abs(vmin) + 1.0)
    return int(np.nonzero(values <= band)[0][0])


# ---------------------------------------------------------------------------
# the solve cache
# ---------------------------------------------------------------------------


class EnergyLandscape:
    """One boundary-value problem; bulk energies cached per effective crack.

    Each crack is solved through its effective crack, whose edges are
    memoised per edge set, and the cache is keyed on the effective edges: a
    union of nested circles costs no solve once the outer circle is cached.
    Every crack of one effective class gets the same energy, and the same
    field lifted onto its own cut grid, bit for bit.

    Quadratic-form (p = 2) candidates are small perturbations of the
    uncracked problem, and once the empty crack is solved the landscape
    keeps that problem (solver._Uncracked): each later candidate's CG starts
    from the uncracked field, and only the rows and aggregates its crack
    changes are assembled; the rest is spliced in, bit for bit.
    """

    def __init__(self, grid: Grid, integrand, psi, tol: float = 1e-10):
        self.grid = grid
        self.integrand = integrand
        self.psi = psi
        self.tol = tol
        self._bulk = {}         # effective edge set -> bulk energy
        self._effective = {}    # edge set -> effective crack
        self._uncracked = _Uncracked()
        self.empty_crack = CrackSet(grid)

    def effective(self, crack: CrackSet = None) -> CrackSet:
        """The effective crack of crack (geometry.effective_crack), memoised."""
        crack = crack or self.empty_crack
        # a crack from another Grid object is checked against the lattice
        eff = self._effective.get(crack.edges) if crack.grid is self.grid else None
        if eff is None:
            eff = effective_crack(self.grid, crack)
            self._effective[crack.edges] = eff
            self._effective.setdefault(eff.edges, eff)
        return eff

    def solve_field(self, crack: CrackSet = None):
        """Solve for one crack; its bulk energy is cached as a by-product.

        The effective crack is solved; a crack that differs from it gets the
        field lifted onto its own cut grid, cell corner by cell corner, which
        keeps every cell's gradient bit for bit, with that grid's fixed dofs.
        Quadratic-form candidates run CG on the aggregation cycle, from the
        uncracked problem once it is kept: landscape callers read energies
        and power pairings, not the CG residual's smooth part that a direct
        solve() keeps small (see solver).
        """
        crack = crack or self.empty_crack
        eff = self.effective(crack)
        fld, report = solve(self.grid, self.integrand, self.psi, eff, tol=self.tol,
                            _cycle=self._uncracked)
        self._bulk[eff.edges] = report.bulk_energy
        if len(eff) == len(crack):
            return fld
        top = cut_grid(self.grid, crack)
        values = np.zeros(top.n_dofs)
        values[top.cell_dofs] = fld.values[fld.topology.cell_dofs]
        constrained = top.constrained_dofs()
        fixed = np.union1d(constrained, top.floating_dofs(constrained))
        return ScalarField(top, fld.integrand, values, fld.psi, constrained, fixed)

    def bulk(self, crack: CrackSet = None) -> float:
        eff = self.effective(crack)
        if eff.edges not in self._bulk:
            self.solve_field(eff)
        return self._bulk[eff.edges]

    def bulk_many(self, cracks, on_field=None):
        """Bulk energies of cracks, solving each uncached effective crack once.

        on_field(effective crack, field), when given, is called with every
        field solved here, on the effective crack's cut grid; fields are
        dropped after it returns.
        """
        effs = [self.effective(c) for c in cracks]
        for e in effs:
            if e.edges not in self._bulk:
                fld = self.solve_field(e)
                if on_field is not None:
                    on_field(e, fld)
                del fld     # held into the next solve, it raises peak memory
        return [self._bulk[e.edges] for e in effs]


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrackFamily:
    """Finite enumerated family; member ids are enumeration indices."""

    kind: str
    members: tuple

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def segments_family(grid: Grid, stride: int, lengths, orientations=("h", "v")) -> CrackFamily:
    """Axis-aligned straight polylines anchored on a node sub-lattice;
    lengths are edge counts."""
    members = []
    for orient in orientations:
        for n in lengths:
            for j in range(0, grid.ny + 1, stride):
                for i in range(0, grid.nx + 1, stride):
                    if orient == "h":
                        if i + n > grid.nx:
                            continue
                        edges = [("h", i + kk, j) for kk in range(n)]
                    else:
                        if j + n > grid.ny:
                            continue
                        edges = [("v", i, j + kk) for kk in range(n)]
                    members.append(CrackSet(grid, edges))
    if not members:
        raise EmptyFamily("segments family enumerated to nothing")
    return CrackFamily("segments", tuple(members))


def circle_crack(grid: Grid, center, r: float) -> CrackSet:
    """Grid staircase approximating the circle boundary around center.

    Takes the cells whose centers lie inside B_r and returns the edges
    separating them from outside cells; cutting them disconnects the inside.
    """
    cx, cy = float(center[0]), float(center[1])
    if grid.domain.distance_to_boundary(cx, cy) <= r + grid.h:
        raise InvalidProbe(f"circle of radius {r:g} at ({cx:g},{cy:g}) not interior")
    xc, yc = grid.cell_centers()
    inside = ((xc - cx) ** 2 + (yc - cy) ** 2 <= r * r).reshape(grid.ny, grid.nx)
    inside = np.pad(inside, 1)      # [j + 1, i + 1], outside the grid is out
    # ("v", i, j) parts cells (i - 1, j) and (i, j); ("h", i, j) parts (i, j - 1) and (i, j)
    vj, vi = np.nonzero(inside[1:-1, :-1] != inside[1:-1, 1:])
    hj, hi = np.nonzero(inside[:-1, 1:-1] != inside[1:, 1:-1])
    edges = ([("v", i, j) for i, j in zip(vi.tolist(), vj.tolist())]
             + [("h", i, j) for i, j in zip(hi.tolist(), hj.tolist())])
    if not edges:
        raise InvalidProbe(f"circle of radius {r:g} encloses no cell centers")
    return CrackSet(grid, edges)


def circles_family(grid: Grid, center, radii) -> CrackFamily:
    """Grid-approximated circles around a declared probe point."""
    members = [circle_crack(grid, center, r) for r in radii]
    if not members:
        raise EmptyFamily("circles family enumerated to nothing")
    return CrackFamily("circles", tuple(members))


def boundary_debond_family(grid: Grid, spans) -> CrackFamily:
    """Contiguous runs of Dirichlet boundary edges (debonding competitors).

    spans are run lengths in edges; each side with a Dirichlet part gets
    the non-overlapping runs of each span, tiled from its start, plus the
    full side.
    """
    members = []
    for side in sorted({seg.side for seg in grid.domain.dirichlet_part}):
        all_edges = grid.boundary_edges(side)
        n = len(all_edges)
        for span in spans:
            span = min(span, n)
            for start in range(0, n - span + 1, span):
                members.append(CrackSet(grid, all_edges[start:start + span]))
        members.append(CrackSet(grid, all_edges))
    # dedupe, preserving enumeration order
    seen = set()
    uniq = []
    for c in members:
        if c.edges not in seen:
            seen.add(c.edges)
            uniq.append(c)
    if not uniq:
        raise EmptyFamily("boundary debond family enumerated to nothing")
    return CrackFamily("boundary_debond", tuple(uniq))


def explicit_family(cracks) -> CrackFamily:
    cracks = tuple(cracks)
    if not cracks:
        raise EmptyFamily("explicit family is empty")
    return CrackFamily("explicit", cracks)


def concat_families(*fams) -> CrackFamily:
    members = tuple(c for f in fams for c in f.members)
    if not members:
        raise EmptyFamily("concatenated family is empty")
    return CrackFamily("+".join(f.kind for f in fams), members)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


@dataclass
class MinimizeResult:
    budget: float
    k: float
    n_candidates: int
    W: float                    # min bulk over the admissible candidates
    bulk_argmin_id: int         # -1 is the empty crack
    bulk_argmin: CrackSet
    total: float                # min bulk + k H1
    total_argmin_id: int
    total_argmin: CrackSet


def minimize_total(landscape: EnergyLandscape, family: CrackFamily,
                   budget: float, k: float) -> MinimizeResult:
    """Exhaustive minimization over family members with H1 <= budget.

    The empty crack is always admissible (id -1).  Reports both the bulk
    argmin (the W(l) minimizer) and the total-energy argmin; ties resolve to
    the lexicographically first candidate within a relative tolerance band.
    """
    if len(family) == 0:
        raise EmptyFamily("family has no members")
    cands = [(-1, landscape.empty_crack)]
    cands += [(i, c) for i, c in enumerate(family.members)
              if c.h1() <= budget * (1 + 1e-12)]
    bulks = landscape.bulk_many([c for _, c in cands])
    totals = [b + k * c.h1() for b, (_, c) in zip(bulks, cands)]
    ib = argmin_with_tolerance(bulks)
    it = argmin_with_tolerance(totals)
    return MinimizeResult(
        budget=budget,
        k=k,
        n_candidates=len(cands),
        W=bulks[ib],
        bulk_argmin_id=cands[ib][0],
        bulk_argmin=cands[ib][1],
        total=totals[it],
        total_argmin_id=cands[it][0],
        total_argmin=cands[it][1],
    )


@dataclass
class ReleaseCurve:
    budgets: list
    W: list
    rates: list                # (W(0) - W(l)) / l
    argmin_ids: list
    argmin_cracks: list
    totals: list
    W0: float


def release_curve(landscape: EnergyLandscape, family: CrackFamily, budgets,
                  k: float = 1.0, workers: int = 1) -> ReleaseCurve:
    """W(l) and release rates over a decreasing budget ladder.

    workers is accepted and ignored: candidates are solved serially, and
    callers that pass a worker count positionally keep working.
    """
    budgets = list(budgets)
    if not budgets or sorted(budgets, reverse=True) != budgets:
        raise ValueError("budgets must be a non-empty decreasing list")
    W0 = landscape.bulk()
    Ws, rates, ids, cracks, totals = [], [], [], [], []
    for l in budgets:
        res = minimize_total(landscape, family, l, k)
        Ws.append(res.W)
        rates.append((W0 - res.W) / l if l > 0 else 0.0)
        ids.append(res.bulk_argmin_id)
        cracks.append(res.bulk_argmin)
        totals.append(res.total)
    return ReleaseCurve(budgets, Ws, rates, ids, cracks, totals, W0)


@dataclass
class LocalizationReport:
    x_sing: tuple
    neighborhoods: list       # radii
    thresholds: list          # largest budget below which all minimizers meet U

def localization_check(minimizers, x_sing, neighborhoods, grid: Grid) -> LocalizationReport:
    """minimizers: list of (budget, CrackSet) pairs from a budget ladder.

    For each neighborhood U = B_rho(x_sing), reports the largest budget B
    such that every minimizer with budget <= B meets U (None if none does).
    """
    px, py = float(x_sing[0]), float(x_sing[1])
    if not grid.domain.contains(px, py):
        raise InvalidProbe(f"singularity probe ({px}, {py}) outside the domain")

    def meets(crack: CrackSet, rho):
        if crack.is_empty:
            return False
        pts = crack.points()
        return bool(np.any((pts[:, 0] - px) ** 2 + (pts[:, 1] - py) ** 2 <= rho * rho))

    pairs = sorted(minimizers, key=lambda t: t[0])
    thresholds = []
    for rho in neighborhoods:
        best = None
        for budget, crack in pairs:
            if meets(crack, rho):
                best = budget
            else:
                break
        thresholds.append(best)
    return LocalizationReport((px, py), list(neighborhoods), thresholds)
