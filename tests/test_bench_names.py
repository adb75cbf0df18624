"""The traced benchmark names library functions and validate checks as strings.

A rename in ``splinellt`` would break only the traced benchmark run, so the
names it uses are checked here against the library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from splinellt import harness, knots, seminorm

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module("splinellt." + mod), fn, None))
    ]
    assert not missing


def test_workload_checks_exist(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    names = {
        name
        for wl in workloads.WORKLOADS.values()
        for op in wl.ops + wl.smoke
        if op.kind == "checks"
        for name in op.args
    }
    assert names
    assert names <= set(harness.VALIDATE_CHECKS)


def test_traced_kernel_counts_the_ring_points(monkeypatch):
    # the q = 0 sup calls the kernel through seminorm's binding, which the
    # tracer wraps, so the counters see exactly the points the rings evaluate
    tracing = _load(monkeypatch, "tracing")
    kv = knots.family("equispaced", 256)
    grid = seminorm.default_grid(256)
    xs = grid.points_avoiding(kv) / kv.n
    in_support = np.count_nonzero((xs >= kv.xs[0]) & (xs < kv.xs[-1]))
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, {})
    try:
        seminorm.theorem1_error(kv, 0, 0, grid)
    finally:
        tracing.uninstall(undo)
    counts = tracer.counts["splines.stable"]
    assert counts["points"] == counts["in_support"] == 160 < in_support
