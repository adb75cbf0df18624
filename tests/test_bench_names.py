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


def _traced_ring_points(monkeypatch, q):
    # the counters of seminorm's traced kernel binding over one theorem1
    # sup at equispaced n = 256, p = 0
    tracing = _load(monkeypatch, "tracing")
    kv = knots.family("equispaced", 256)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, {})
    try:
        seminorm.theorem1_error(kv, 0, q, seminorm.default_grid(256))
    finally:
        tracing.uninstall(undo)
    return tracer.counts["splines.stable"]


def test_traced_kernel_counts_the_ring_points(monkeypatch):
    # the q = 0 sup calls the kernel through seminorm's binding, which the
    # tracer wraps, so the counters see exactly the points the rings evaluate
    kv = knots.family("equispaced", 256)
    xs = seminorm.default_grid(256).points_avoiding(kv) / kv.n
    in_support = np.count_nonzero((xs >= kv.xs[0]) & (xs < kv.xs[-1]))
    counts = _traced_ring_points(monkeypatch, 0)
    assert counts["points"] == counts["in_support"] == 160 < in_support


def test_traced_kernel_counts_the_ring_points_at_q2(monkeypatch):
    # at q > 0 each ring is still one call of the traced binding, here two
    # rings of 160 points; the certificate's rows at the four edge points of
    # each ring come from bspline_stable_terms, which is not traced
    counts = _traced_ring_points(monkeypatch, 2)
    assert counts["points"] == counts["in_support"] == 320
