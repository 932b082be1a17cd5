"""Per-stage times of one slit solve at 64^2, 128^2 and 256^2, traced.

    python3 bench/stages.py

Solves the p = 2 pull-apart problem (Laplace, datum x, Dirichlet left and
right) with a central vertical slit of length 1/8 under the tracer, and
prints the median self time of each stage over three solves.  ``solve (rest)``
is the self time of ``solver.solve``: Dirichlet set-up, slicing the free
block and the energy sum.
"""

from __future__ import annotations

import os
import sys

from run import worker_env

os.environ.update(worker_env())   # before numpy loads: one BLAS thread
sys.path.insert(0, os.environ["PYTHONPATH"].split(os.pathsep)[0])

REPEATS = 3
STAGES = (("geometry.cut_grid", "cut_grid"), ("energy.integrand", "integrand"),
          ("solver.assemble_metric", "assemble_metric"), ("solver.pcg", "pcg"),
          ("solver.solve", "solve (rest)"))


def main():
    import numpy as np
    from fracturelab import energy, geometry, solver
    from tracing import Tracer
    from workloads import linear_x, slit

    print(f"{'grid':>6s} " + " ".join(f"{label:>16s}" for _, label in STAGES)
          + f" {'total':>9s} {'pcg iters':>9s}   (ms, median of {REPEATS})")
    for n in (64, 128, 256):
        grid = geometry.Grid(geometry.Domain.unit_square(dirichlet=("left", "right")), n)
        crack = slit(grid, "v", n // 2, n // 2 - n // 16, n // 8)
        rows = []
        for _ in range(REPEATS):
            tracer = Tracer()
            tracer.install()
            try:
                solver.solve(grid, energy.laplace_integrand(), linear_x, crack)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(1)
            rows.append([1e3 * layers[name + ".s"] for name, _ in STAGES]
                        + [layers["solver.pcg.iterations"]])
        med = np.median(np.array(rows), axis=0)
        print(f"{n:>4d}^2 " + " ".join(f"{v:16.1f}" for v in med[:-1])
              + f" {sum(med[:-1]):9.1f} {med[-1]:9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
