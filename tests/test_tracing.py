"""The benchmark's span tracer wraps functions and methods of the package by
name, so a rename or deletion that breaks one of its targets must fail here
and not only in a benchmark run."""

import importlib
import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """bench/tracing.py as a module, compiled from its source so that no
    bytecode cache is written next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_bench_tracer_installs_on_every_target_and_uninstalls():
    tracing = load_tracing()
    owners = [importlib.import_module("fracturelab")]
    owners += [importlib.import_module("fracturelab." + m) for m in tracing.MODULES]
    owners += [getattr(importlib.import_module("fracturelab." + mod), qual.split(".")[0])
               for mod, qual, _, _ in tracing.TARGETS if "." in qual]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises on a target that is gone
        assert len(tracer._patched) >= len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        assert all(vars(owner).get(name) is value for name, value in attrs.items())
