import os

# One BLAS/OpenMP thread, as the benchmark workers run: threaded BLAS on the
# small vectors of pcg waits on its threads more than it computes.  Set
# before numpy is imported; a value already in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from fracturelab.geometry import CrackSet, Domain, Grid
from fracturelab.search import EnergyLandscape


@pytest.fixture
def unit_grid_16():
    return Grid(Domain.unit_square(), 16)


@pytest.fixture
def lr_domain():
    """Unit square loaded left/right (the standard pull-apart setup)."""
    return Domain.unit_square(dirichlet=("left", "right"))


@pytest.fixture
def centered_domain():
    return Domain.unit_square(dirichlet="all", centered=True)


def hslit(grid, i0, j, n):
    return CrackSet(grid, [("h", i0 + k, j) for k in range(n)])


def vslit(grid, i, j0, n):
    return CrackSet(grid, [("v", i, j0 + k) for k in range(n)])


def linear_x(x, y):
    return np.asarray(x, dtype=float)


def linear_y(x, y):
    return np.asarray(y, dtype=float)


def random_union(grid, rng):
    """A union of 1 to 4 cracks on a square grid, each an interior slit (it
    may run from side to side), a closed box or a run of debonded side
    edges."""
    n = grid.nx
    edges = set()
    for _ in range(rng.integers(1, 5)):
        kind = rng.integers(3)
        if kind == 0:
            c, start = (int(v) for v in rng.integers((1, 0), (n, n)))
            run = range(start, start + int(rng.integers(1, n - start + 1)))
            edges |= ({("v", c, j) for j in run} if rng.integers(2)
                      else {("h", i, c) for i in run})
        elif kind == 1:
            i0, i1 = sorted(rng.choice(n + 1, 2, replace=False).tolist())
            j0, j1 = sorted(rng.choice(n + 1, 2, replace=False).tolist())
            edges |= {("h", i, j) for i in range(i0, i1) for j in (j0, j1)}
            edges |= {("v", i, j) for i in (i0, i1) for j in range(j0, j1)}
        else:
            side = grid.boundary_edges(("left", "right", "bottom", "top")[rng.integers(4)])
            start = int(rng.integers(n))
            edges |= set(side[start:start + int(rng.integers(1, n + 1))])
    return CrackSet(grid, edges)


def random_crack(grid, rng):
    """A union of 1 to 4 closed boxes, full cuts and boundary debonds."""
    n = grid.nx
    edges = set()
    for _ in range(rng.integers(1, 5)):
        kind = rng.integers(3)
        if kind == 0:
            i0, i1 = sorted(rng.choice(n + 1, 2, replace=False).tolist())
            j0, j1 = sorted(rng.choice(n + 1, 2, replace=False).tolist())
            edges |= {("h", i, j) for i in range(i0, i1) for j in (j0, j1)}
            edges |= {("v", i, j) for i in (i0, i1) for j in range(j0, j1)}
        elif kind == 1:
            c = int(rng.integers(1, n))
            edges |= ({("v", c, j) for j in range(n)} if rng.integers(2)
                      else {("h", i, c) for i in range(n)})
        else:
            side = grid.boundary_edges(("left", "right", "bottom", "top")[rng.integers(4)])
            start = int(rng.integers(n))
            edges |= set(side[start:start + int(rng.integers(1, n + 1))])
    return CrackSet(grid, edges)


def count_solves(monkeypatch, land=None):
    """The cracks EnergyLandscape.solve_field is asked for from now on (by
    land alone, if given)."""
    solved = []
    solve_field = EnergyLandscape.solve_field

    def counting(self, crack=None):
        if land is None or self is land:
            solved.append(crack or self.empty_crack)
        return solve_field(self, crack)

    monkeypatch.setattr(EnergyLandscape, "solve_field", counting)
    return solved
