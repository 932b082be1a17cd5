"""The in-process workloads: release_sweep, initiation and dual_p15.

Each workload class draws the inputs of one pass from the workload's random
generator, runs the pass through fracturelab's public functions, turns the
outputs into a plain record and checks that record against closed forms and
properties the method must have.  Grids, integrands and landscapes are built
fresh in every pass, so no pass can reuse another pass's work.
"""

from __future__ import annotations

import math

import numpy as np

from fracturelab import dual, energy, geometry, quasistatic, search, singularity, solver


def linear_x(x, y):
    return np.asarray(x, dtype=float)


def slit(grid, orient, i, j, n):
    """Straight slit of n edges starting at node (i, j)."""
    if orient == "v":
        return geometry.CrackSet(grid, [("v", i, j + k) for k in range(n)])
    return geometry.CrackSet(grid, [("h", i + k, j) for k in range(n)])


# ---------------------------------------------------------------------------
# release_sweep
# ---------------------------------------------------------------------------


class ReleaseSweep:
    """W(l) at 128^2 over interior straight slits of 2 edges up to full cuts.

    Per pass: one vertical slit of each length in LENGTHS, all centred on one
    anchor drawn from the seed, and one horizontal slit of each length at a
    position drawn from the seed; budgets equal the slit lengths.
    """

    N = 128
    LENGTHS = (128, 64, 32, 16, 8, 4, 2)
    TOL = 1e-9

    def draw(self, rng):
        N = self.N
        # vertical slits nested about one anchor release more than twice as
        # much per doubling of length wherever the anchor lies, so the release
        # rate falls as l shrinks; unnested slits near a Neumann side break it
        i = int(rng.integers(N // 8, 7 * N // 8 + 1))
        jc = int(rng.integers(N // 4, 3 * N // 4 + 1))
        slits = [["v", i, 0 if n == N else jc - n // 2, n] for n in self.LENGTHS]
        for n in self.LENGTHS:
            if n == N:  # full cut joining the two Dirichlet sides
                slits.append(["h", 0, int(rng.integers(1, N)), n])
            else:       # interior: both ends off the Dirichlet sides
                slits.append(["h", int(rng.integers(1, N - n)), int(rng.integers(1, N)), n])
        return {"slits": slits}

    def candidates(self, inp):
        """Per budget: the slits within it plus the empty crack."""
        lengths = [s[3] for s in inp["slits"]]
        return sum(1 + sum(n <= b for n in lengths) for b in self.LENGTHS)

    def run(self, inp, ops):
        grid = geometry.Grid(geometry.Domain.unit_square(dirichlet=("left", "right")), self.N)
        landscape = search.EnergyLandscape(grid, energy.laplace_integrand(), linear_x)
        members = [slit(grid, *s) for s in inp["slits"]]
        family = search.explicit_family(members)
        budgets = [n * grid.h for n in self.LENGTHS]
        curve = ops.run(search.release_curve, landscape, family, budgets, 1.0, 1)
        return landscape, members, curve

    def record(self, inp, raw):
        landscape, members, curve = raw
        if curve is None:
            return None
        return {"W0": curve.W0, "budgets": list(curve.budgets), "W": list(curve.W),
                "rates": list(curve.rates), "slits": inp["slits"],
                "bulks": landscape.bulk_many(members)}

    def check(self, rec):
        if rec is None:
            return []
        bad = []
        W0, W, rates = rec["W0"], rec["W"], rec["rates"]
        if abs(W0 - 1.0) > self.TOL:
            bad.append(f"W0 = {W0!r}, closed form 1")
        for (orient, i, j, n), bulk in zip(rec["slits"], rec["bulks"]):
            if orient == "h" and n < self.N and abs(bulk - W0) > self.TOL:
                bad.append(f"slit parallel to grad u at ({i},{j}) n={n} releases {W0 - bulk!r}")
            if orient == "v" and n == self.N and bulk > self.TOL:
                bad.append(f"full cut at column {i} keeps bulk {bulk!r}")
        for k in range(len(W) - 1):
            if W[k] > W[k + 1] + self.TOL:
                bad.append(f"W rises with l: W({rec['budgets'][k]:.4g}) = {W[k]!r} > "
                           f"W({rec['budgets'][k + 1]:.4g}) = {W[k + 1]!r}")
            if not rates[k + 1] < rates[k]:
                bad.append(f"release rate does not fall as l shrinks: {rates[k]!r} at "
                           f"l={rec['budgets'][k]:.4g}, {rates[k + 1]!r} at "
                           f"l={rec['budgets'][k + 1]:.4g}")
        return bad


# ---------------------------------------------------------------------------
# initiation
# ---------------------------------------------------------------------------


class Initiation:
    """Brutal and progressive initiation, then classify the composite.

    Brutal: pull-apart unit square at 64^2, slits and boundary debonds, with
    the toughness drawn so that t* = sqrt(k / W0) falls mid-step.  Progressive:
    K = 3 radially stiff composite at 128^2, circles around the origin, with
    the toughness drawn inside the window where a circle is picked at the
    first step.
    """

    NB, STEPS_B, HORIZON_B = 64, 300, 1.5
    NP, STEPS_P, HORIZON_P = 128, 100, 1.0
    K = 3.0
    CIRCLES = 8

    def draw(self, rng):
        NB = self.NB
        cols = rng.choice(np.arange(1, NB), size=5, replace=False)
        half = [[int(c), int(rng.integers(0, NB // 2 + 1))] for c in cols[:3]]
        return {
            "t_star_step": int(rng.integers(self.STEPS_B // 3, 2 * self.STEPS_B // 3)),
            "half_slits": half,
            "full_cuts": [int(c) for c in cols[3:]],
            "r0_cells": float(rng.uniform(2.5, 3.5)),
            "k_position": float(rng.uniform(0.25, 0.75)),
            "probe_angle": float(rng.uniform(0.0, 2.0 * math.pi)),
        }

    def candidates(self, inp):
        """Per evolution step: every family member plus the previous crack;
        plus the single-circle probes that place the progressive toughness."""
        brutal = len(inp["half_slits"]) + len(inp["full_cuts"]) + 6  # 3 debonds per side
        return (self.STEPS_B * (brutal + 1) + self.CIRCLES + 1
                + self.STEPS_P * (self.CIRCLES + 1))

    def run(self, inp, ops):
        return {"brutal": ops.run(self._brutal, inp),
                "progressive": ops.run(self._progressive, inp),
                "classify": ops.run(self._classify, inp)}

    def _brutal(self, inp):
        NB = self.NB
        grid = geometry.Grid(geometry.Domain.unit_square(dirichlet=("left", "right")), NB)
        landscape = search.EnergyLandscape(grid, energy.laplace_integrand(), linear_x)
        slits = [slit(grid, "v", i, j, NB // 2) for i, j in inp["half_slits"]]
        slits += [slit(grid, "v", i, 0, NB) for i in inp["full_cuts"]]
        family = search.concat_families(search.explicit_family(slits),
                                        search.boundary_debond_family(grid, [NB // 2]))
        dt = self.HORIZON_B / self.STEPS_B
        k = ((inp["t_star_step"] + 0.5) * dt) ** 2  # W0 = 1 for the datum x
        traj = quasistatic.evolve(landscape, family, k, self.HORIZON_B, self.STEPS_B, 1)
        return traj, quasistatic.initiation_report(traj), k

    def _progressive(self, inp):
        grid = geometry.Grid(geometry.Domain.unit_square(dirichlet="all", centered=True), self.NP)
        landscape = search.EnergyLandscape(grid, energy.meyers_integrand(self.K, "radial_stiff"),
                                           singularity.meyers_profile(self.K, "radial_stiff"))
        radii = [inp["r0_cells"] * grid.h * 1.45 ** j for j in range(self.CIRCLES)]
        family = search.circles_family(grid, (0.0, 0.0), radii)
        lengths = [c.h1() for c in family.members]
        w0 = landscape.bulk()
        rels = [w0 - landscape.bulk(c) for c in family.members]
        i0 = int(np.argmin(lengths))
        dt = self.HORIZON_P / self.STEPS_P
        # the smallest circle pays off at t = dt but no bigger one beats it
        lo = dt ** 2 * max((rels[j] - rels[i0]) / (lengths[j] - lengths[i0])
                           for j in range(len(lengths)) if j != i0)
        hi = dt ** 2 * rels[i0] / lengths[i0]
        k = lo + inp["k_position"] * (hi - lo)
        traj = quasistatic.evolve(landscape, family, k, self.HORIZON_P, self.STEPS_P, 1)
        return traj, quasistatic.initiation_report(traj, resolution=min(lengths)), k

    def _classify(self, inp):
        grid = geometry.Grid(geometry.Domain.unit_square(dirichlet="all", centered=True), self.NP)
        field, _ = solver.solve(grid, energy.meyers_integrand(self.K, "radial_stiff"),
                                singularity.meyers_profile(self.K, "radial_stiff"))
        a = inp["probe_angle"]
        far = (0.3 * math.cos(a), 0.3 * math.sin(a))
        return singularity.classify(field, [(0.0, 0.0), far])

    @staticmethod
    def _trajectory(raw):
        traj, report, k = raw
        _, ok = quasistatic.energy_balance_residual(traj)
        first = traj.first_crack_index()
        near = None
        if first is not None:
            pts = traj.cracks[first].points()
            near = float(np.sqrt((pts ** 2).sum(axis=1)).min())
        return {"t": traj.t.tolist(), "h1": traj.h1.tolist(),
                "edges": [c.edges for c in traj.cracks], "W0": traj.bulk_unit_empty,
                "k": k, "t_i": report.t_i, "class": report.classification,
                "minimality": ok.tolist(), "first_distance": near}

    def record(self, inp, raw):
        rec = {}
        for name in ("brutal", "progressive"):
            rec[name] = None if raw[name] is None else self._trajectory(raw[name])
        rep = raw["classify"]
        rec["classify"] = None if rep is None else {
            "classes": rep.classes(), "alphas": [p.alpha for p in rep.probes]}
        return rec

    def check(self, rec):
        bad = []
        for name in ("brutal", "progressive"):
            tr = rec[name]
            if tr is None:
                continue
            edges = tr["edges"]
            if not all(edges[j] <= edges[j + 1] for j in range(len(edges) - 1)):
                bad.append(f"{name}: cracks are not nested over time")
            if not all(tr["minimality"]):
                bad.append(f"{name}: rescaled minimality fails at "
                           f"{tr['minimality'].count(False)} steps")
        tr = rec["brutal"]
        if tr is not None:
            t, h1 = tr["t"], tr["h1"]
            t_star = math.sqrt(tr["k"] / tr["W0"])
            step = next(j for j in range(len(t)) if t[j] >= t_star)
            first = next((j for j in range(len(h1)) if h1[j] > 0), None)
            if first != step or abs(h1[step] - 1.0) > 1e-12 or tr["class"] != "brutal":
                bad.append(f"brutal: first crack at step {first} (h1 "
                           f"{h1[first] if first is not None else 0!r}, {tr['class']}), "
                           f"expected a full-length jump at step {step} containing "
                           f"t* = {t_star:.6g}")
        tr = rec["progressive"]
        if tr is not None:
            first = next((j for j in range(len(tr["h1"])) if tr["h1"][j] > 0), None)
            if first != 1 or tr["t_i"] != 0.0 or tr["class"] != "progressive":
                bad.append(f"progressive: first crack at step {first}, t_i = {tr['t_i']!r}, "
                           f"{tr['class']}; expected a small crack at step 1")
            elif tr["first_distance"] > 0.1:
                bad.append(f"progressive: first crack {tr['first_distance']:.4g} from the origin")
        cl = rec["classify"]
        if cl is not None:
            alpha0 = cl["alphas"][0]
            if cl["classes"] != ["strong", "weak"] or abs(alpha0 - 2.0 / self.K) > 0.05:
                bad.append(f"classify: classes {cl['classes']}, exponent at the origin "
                           f"{alpha0:.4g} (2/K = {2.0 / self.K:.4g})")
        return bad


# ---------------------------------------------------------------------------
# dual_p15
# ---------------------------------------------------------------------------


class DualP15:
    """Certified release bounds at p = 1.5 for ladders of central slits,
    each paired with a Newton solve of the cracked problem."""

    P = 1.5
    LADDERS = ((64, (12, 6, 3)), (128, (24, 12, 6, 3)))

    def draw(self, rng):
        # offsets of at most N/16 keep every doubled cover ball inside the square
        return {"offsets": [[int(rng.integers(-(n // 16), n // 16 + 1)) for _ in range(2)]
                            for n, _ in self.LADDERS]}

    def candidates(self, inp):
        """Cracks certified."""
        return sum(len(ladder) for _, ladder in self.LADDERS)

    def run(self, inp, ops):
        integrand = energy.ppower_integrand(self.P, 1.0)
        out = []
        for (N, ladder), (di, dj) in zip(self.LADDERS, inp["offsets"]):
            grid = geometry.Grid(geometry.Domain.unit_square(dirichlet=("left", "right")), N)
            base_field, _ = solver.solve(grid, integrand, linear_x)
            base = (base_field, solver.stress(base_field))
            rungs = []
            for n in ladder:
                crack = slit(grid, "v", N // 2 + di, N // 2 - n // 2 + dj, n)
                rungs.append(ops.run(self._rung, grid, integrand, crack, base))
            out.append((solver.bulk_energy(base_field), rungs))
        return out

    def _rung(self, grid, integrand, crack, base):
        rb = dual.release_bound(grid, integrand, linear_x, crack, 1, base=base)
        cracked, _ = solver.solve(grid, integrand, linear_x, crack)
        return rb.h1, rb.bound, solver.bulk_energy(base[0]) - solver.bulk_energy(cracked)

    def record(self, inp, raw):
        return [{"E0": e0, "rungs": [r for r in rungs if r is not None]} for e0, rungs in raw]

    def check(self, rec):
        bad = []
        for ladder in rec:
            if abs(ladder["E0"] - 1.0 / self.P) > 1e-9:
                bad.append(f"uncracked energy {ladder['E0']!r}, closed form 1/p")
            for h1, bound, release in ladder["rungs"]:
                if release < 0.0 or bound < release - 1e-9 * (1.0 + abs(bound)):
                    bad.append(f"l={h1:.4g}: bound {bound!r} vs measured release {release!r}")
            if len(ladder["rungs"]) >= 2:
                h1s, bounds = zip(*[(h, b) for h, b, _ in ladder["rungs"]])
                slope = float(np.polyfit(np.log(h1s), np.log(bounds), 1)[0])
                if not slope > 1.0:
                    bad.append(f"bound ~ l^{slope:.3g}, expected an exponent above 1")
        return bad


WORKLOADS = {"release_sweep": ReleaseSweep, "initiation": Initiation, "dual_p15": DualP15}
