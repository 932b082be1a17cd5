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
