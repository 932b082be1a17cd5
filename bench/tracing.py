"""Span tracing of fracturelab's layers, installed from outside the package.

The tracer replaces public functions and methods of the layer modules with
wrappers that record one span per call (name, start, end, parent span) and a
few counters read from arguments and return values.  Spans stay in memory
until the run ends.  Nothing in ``src/`` knows about the tracer: a function
imported by name into another module is replaced wherever it is bound.

Run as a script, it executes one fracturelab CLI command under tracing and
writes the spans and counters to a JSON file:

    python3 bench/tracing.py --out trace.json -- evolve --config configs/weak_evolve.ini
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("geometry", "energy", "solver", "singularity", "dual", "search",
           "quasistatic", "poincare", "config", "report", "cli")


def _pcg(tr, args, kwargs, result, solves):
    tr.counts["solver.pcg.iterations"] += result[1]


def _solve(tr, args, kwargs, result, solves):
    report = result[1]
    if report.method == "newton":
        tr.counts["solver.newton.iterations"] += report.iterations


def _corrector(tr, args, kwargs, result, solves):
    tr.counts["dual.corrector.iterations"] += result.iterations


def _optimal_constant(tr, args, kwargs, result, solves):
    tr.counts["poincare.optimal_constant.iterations"] += result.iterations


def _evolve(tr, args, kwargs, result, solves):
    tr.counts["quasistatic.steps"] += len(result.t) - 1


def _solve_field(tr, args, kwargs, result, solves):
    landscape = args[0]
    crack = args[1] if len(args) > 1 else kwargs.get("crack")
    tr.counts["search.solves"] += 1
    # the landscape is kept alive so that its id names one problem per run
    tr.landscapes.append(landscape)
    tr.distinct.add((id(landscape), (crack or landscape.empty_crack).edges))


def _bulk(tr, args, kwargs, result, solves):
    tr.counts["search.candidates"] += 1
    tr.counts["search.cache_hits"] += 1 - solves


def _bulk_many(tr, args, kwargs, result, solves):
    tr.counts["search.candidates"] += len(result)
    tr.counts["search.cache_hits"] += len(result) - solves


# (module, function or Class.method, span name, counter hook)
TARGETS = (
    ("geometry", "cut_grid", "geometry.cut_grid", None),
    ("geometry", "CrackSet.__init__", "geometry.crackset", None),
    ("geometry", "cover_crack", "geometry.cover_crack", None),
    ("energy", "Integrand.eval_f", "energy.integrand", None),
    ("energy", "Integrand.grad_f", "energy.integrand", None),
    ("energy", "Integrand.eval_fstar", "energy.integrand", None),
    ("energy", "Integrand.grad_fstar", "energy.integrand", None),
    ("energy", "Integrand.cell_metric", "energy.integrand", None),
    ("solver", "solve", "solver.solve", _solve),
    ("solver", "assemble_metric", "solver.assemble_metric", None),
    ("solver", "pcg", "solver.pcg", _pcg),
    ("solver", "stress", "solver.stress", None),
    ("search", "EnergyLandscape.solve_field", "search.solve_field", _solve_field),
    ("search", "EnergyLandscape.bulk", "search.bulk", _bulk),
    ("search", "EnergyLandscape.bulk_many", "search.bulk_many", _bulk_many),
    ("search", "release_curve", "search.release_curve", None),
    ("quasistatic", "evolve", "quasistatic.evolve", _evolve),
    ("dual", "release_bound", "dual.release_bound", None),
    ("dual", "cutoff", "dual.cutoff", None),
    ("dual", "member_collar", "dual.member_collar", None),
    ("dual", "corrector", "dual.corrector", _corrector),
    ("dual", "assemble_tau", "dual.assemble_tau", None),
    ("dual", "duality_gap", "dual.duality_gap", None),
    ("singularity", "classify", "singularity.classify", None),
    ("singularity", "fit_exponent", "singularity.fit_exponent", None),
    ("poincare", "optimal_constant", "poincare.optimal_constant", _optimal_constant),
    ("config", "load_config", "config.build", None),
    ("config", "ExperimentConfig.build_domain", "config.build", None),
    ("config", "ExperimentConfig.build_grid", "config.build", None),
    ("config", "ExperimentConfig.build_integrand", "config.build", None),
    ("config", "ExperimentConfig.build_datum", "config.build", None),
    ("config", "ExperimentConfig.build_family", "config.build", None),
    ("report", "write_csv", "report.write", None),
    ("report", "write_svg_line", "report.write", None),
)

# per-layer metrics: name -> (unit, better)
LAYER_METRICS = {
    "geometry.cut_grid.calls": ("count", "lower"),
    "geometry.cut_grid.s": ("s", "lower"),
    "geometry.crackset.calls": ("count", "lower"),
    "geometry.crackset.s": ("s", "lower"),
    "geometry.cover_crack.s": ("s", "lower"),
    "solver.solve.calls": ("count", "lower"),
    "solver.solve.s": ("s", "lower"),
    "solver.solve.p50_ms": ("ms", "lower"),
    "solver.solve.p90_ms": ("ms", "lower"),
    "solver.assemble_metric.calls": ("count", "lower"),
    "solver.assemble_metric.s": ("s", "lower"),
    "solver.pcg.calls": ("count", "lower"),
    "solver.pcg.s": ("s", "lower"),
    "solver.pcg.iterations": ("count", "lower"),
    "solver.newton.iterations": ("count", "lower"),
    "solver.stress.s": ("s", "lower"),
    "energy.integrand.calls": ("count", "lower"),
    "energy.integrand.s": ("s", "lower"),
    "search.candidates": ("count", "higher"),
    "search.cache_hits": ("count", "higher"),
    "search.solves": ("count", "lower"),
    "search.distinct_cracks": ("count", "higher"),
    "search.useful_solve_ratio": ("ratio", "higher"),
    "search.bulk_many.s": ("s", "lower"),
    "quasistatic.evolve.s": ("s", "lower"),
    "quasistatic.steps": ("count", "higher"),
    "dual.cutoff.s": ("s", "lower"),
    "dual.member_collar.s": ("s", "lower"),
    "dual.corrector.s": ("s", "lower"),
    "dual.corrector.iterations": ("count", "lower"),
    "dual.assemble_tau.s": ("s", "lower"),
    "dual.duality_gap.s": ("s", "lower"),
    "singularity.classify.s": ("s", "lower"),
    "singularity.fit_exponent.s": ("s", "lower"),
    "poincare.optimal_constant.calls": ("count", "lower"),
    "poincare.optimal_constant.s": ("s", "lower"),
    "poincare.optimal_constant.iterations": ("count", "lower"),
    "config.build.s": ("s", "lower"),
    "report.write.s": ("s", "lower"),
    "trace.pass_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Spans and counters of the wrapped layer functions."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self.distinct = set()
        self.landscapes = []
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            solves = self.counts["search.solves"]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result, self.counts["search.solves"] - solves)
            return result
        return wrapper

    def install(self):
        """Replace every target wherever fracturelab binds it."""
        modules = [importlib.import_module("fracturelab")]
        modules += [importlib.import_module("fracturelab." + m) for m in MODULES]
        for modname, qual, name, hook in TARGETS:
            mod = importlib.import_module("fracturelab." + modname)
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(name, orig, hook))
                continue
            orig = getattr(mod, qual)
            wrapped = self._wrap(name, orig, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def merge(self, data):
        """Append the spans and counters of a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
        for key, value in data["counts"].items():
            self.counts[key] += value
        self.counts["search.distinct_cracks"] += data["distinct_cracks"]

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "distinct_cracks": len(self.distinct)}

    def layer_metrics(self, n_passes):
        """Per-pass averages of calls, self time and counters, for every
        layer metric except the ``trace.*`` ones, which need pass times."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        solve_ms = []
        for (name, start, end, parent), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
            if name == "solver.solve":
                solve_ms.append(1e3 * (end - start))
        counts = dict(self.counts)
        distinct = counts.get("search.distinct_cracks", 0) + len(self.distinct)
        counts["search.distinct_cracks"] = distinct
        solves = counts.get("search.solves", 0)
        out = {"solver.solve.p50_ms": _quantile(solve_ms, 0.5),
               "solver.solve.p90_ms": _quantile(solve_ms, 0.9),
               "search.useful_solve_ratio": distinct / solves if solves else 0.0}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if metric in out or layer == "trace":
                continue
            if kind == "calls":
                out[metric] = calls[layer] / n_passes
            elif kind == "s":
                out[metric] = self_s[layer] / n_passes
            else:
                out[metric] = counts.get(metric, 0) / n_passes
        return out


def _quantile(values, q):
    """Nearest-rank quantile; 0 when nothing was recorded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file for spans and counters")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    tracer.install()
    from fracturelab import cli
    code = cli.main(cli_args)
    tracer.uninstall()
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
