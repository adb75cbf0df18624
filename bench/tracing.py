"""Span recorder for the traced benchmark run.

Public library functions are wrapped from outside the package: each wrapper
records one span (label, start, end, parent) and, where the layer has a work
counter, counts work from the call's arguments and return value.  A wrapper
replaces the function in its defining module and in every ``splinellt``
module that imported the name directly, so calls through either route are
seen.  Spans stay in memory; ``layer_metrics`` reduces them at the end.
"""

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_stable(counts, args, kwargs, out):
    kv = args[0]
    ts = np.ravel(np.asarray(_arg(args, kwargs, 1, "t"), dtype=float))
    counts["points"] += ts.size
    counts["in_support"] += int(np.count_nonzero((ts >= kv.xs[0]) & (ts < kv.xs[-1])))


def _count_inversion(counts, args, kwargs, out):
    s1 = _arg(args, kwargs, 1, "s1")
    s2 = _arg(args, kwargs, 2, "s2")
    counts["output_points"] += np.size(s1) * np.size(s2)


def _count_truncation(counts, args, kwargs, out):
    counts["certified"] += int(bool(out[1]))


def _count_draws_kv(counts, args, kwargs, out):
    counts["draws"] += args[0].n * int(_arg(args, kwargs, 1, "N"))


def _count_draws_n(counts, args, kwargs, out):
    counts["draws"] += int(_arg(args, kwargs, 0, "n"))


def _count_grid(index, name):
    def count(counts, args, kwargs, out):
        grid = _arg(args, kwargs, index, name)
        counts["grid_points"] += np.size(grid.points() if hasattr(grid, "points") else grid)

    return count


# (module, function, span label, work counter).  Labels name the layers in
# the per-layer metrics; several functions may share one label.
TRACED = (
    ("knots", "family", "knots", None),
    ("knots", "normalize", "knots", None),
    ("knots", "direction_vectors", "knots", None),
    ("knots", "m3", "knots", None),
    ("knots", "x_l3_cubed", "knots", None),
    # every stable evaluation (bspline_stable, bspline_scaled,
    # integrate_bspline) funnels through this one kernel entry point
    ("splines", "bspline_stable_deriv", "splines.stable", _count_stable),
    ("splines", "bspline_naive", "splines.oracle", None),
    ("specfun", "corollary3_sum", "specfun.c3_sum", None),
    ("specfun", "corollary3_sum_2f0", "specfun.c3_2f0", None),
    ("specfun", "corollary3_quadrature", "specfun.c3_quadrature", None),
    ("charprob", "pdf_Q_inversion_grid", "charprob.inversion", _count_inversion),
    ("charprob", "char_diff_integral", "charprob.diff_integral", None),
    ("charprob", "truncation_radius", "charprob.truncation", _count_truncation),
    ("charprob", "quotient_pdf", "charprob.quotient", None),
    ("montecarlo", "simplex_projection_samples", "montecarlo", _count_draws_kv),
    ("montecarlo", "mc_pdf_Q", "montecarlo", _count_draws_kv),
    ("montecarlo", "sample_exp_vector", "montecarlo", _count_draws_n),
    ("seminorm", "theorem1_error", "seminorm", _count_grid(3, "grid")),
    ("seminorm", "corollary2_error", "seminorm", _count_grid(4, "grid")),
    ("seminorm", "corollary3_error", "seminorm", _count_grid(4, "xi_grid")),
    ("seminorm", "corollary4_error", "seminorm", _count_grid(3, "xi_grid")),
)

WORKLOAD_SPAN = "workload"


class Tracer:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self):
        self.labels = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = {}
        self._stack = []

    def open(self, label):
        idx = len(self.labels)
        self.labels.append(label)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, label):
        idx = self.open(label)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, label, counter):
        counts = self.counts.setdefault(label, Counter())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    def self_times(self):
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.labels)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.labels))]

    def to_json(self):
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(
                    zip(self.labels, self.starts, self.ends, self.parents)
                )
            ],
            "counts": {k: dict(v) for k, v in self.counts.items() if v},
        }


def install(tracer, validate_checks):
    """Wrap every TRACED function and every validate check; returns an undo list."""
    mods = [m for name, m in list(sys.modules.items())
            if name == "splinellt" or name.startswith("splinellt.")]
    undo = []
    for mod_name, fn_name, label, counter in TRACED:
        orig = getattr(sys.modules["splinellt." + mod_name], fn_name)
        wrapper = tracer.wrap(orig, label, counter)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))
    for name, fn in list(validate_checks.items()):
        validate_checks[name] = tracer.wrap(fn, "harness.check." + name, None)
        undo.append((validate_checks, name, fn))
    return undo


def uninstall(undo):
    for target, attr, orig in reversed(undo):
        if isinstance(target, dict):
            target[attr] = orig
        else:
            setattr(target, attr, orig)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, operations, checks):
    """Per-layer metrics as {name: (value, unit)} from the recorded spans.

    ``operations`` and ``checks`` name the operation spans (``harness.<op>``)
    and validate-check spans to report; absent ones read 0.
    """
    selfs = tracer.self_times()
    self_s, calls, total_s = {}, {}, {}
    for i, label in enumerate(tracer.labels):
        self_s[label] = self_s.get(label, 0.0) + selfs[i]
        calls[label] = calls.get(label, 0) + 1
        total_s[label] = total_s.get(label, 0.0) + tracer.ends[i] - tracer.starts[i]
    counts = {k: tracer.counts.get(k, Counter()) for k in
              ("splines.stable", "charprob.inversion", "charprob.truncation",
               "montecarlo", "seminorm")}
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    stable = counts["splines.stable"]
    put("splines.stable.calls", calls.get("splines.stable", 0), "count")
    put("splines.stable.points", stable["points"], "count")
    put("splines.stable.self_s", self_s.get("splines.stable", 0.0), "s")
    put("splines.stable.in_support_ratio", _ratio(stable["in_support"], stable["points"]), "ratio")
    for label in ("splines.oracle", "specfun.c3_sum", "specfun.c3_2f0",
                  "specfun.c3_quadrature"):
        put(label + ".calls", calls.get(label, 0), "count")
        put(label + ".self_s", self_s.get(label, 0.0), "s")
    put("charprob.inversion.calls", calls.get("charprob.inversion", 0), "count")
    put("charprob.inversion.output_points", counts["charprob.inversion"]["output_points"], "count")
    put("charprob.inversion.self_s", self_s.get("charprob.inversion", 0.0), "s")
    put("charprob.diff_integral.self_s", self_s.get("charprob.diff_integral", 0.0), "s")
    trunc_calls = calls.get("charprob.truncation", 0)
    put("charprob.truncation.calls", trunc_calls, "count")
    put("charprob.truncation.certified_ratio",
        _ratio(counts["charprob.truncation"]["certified"], trunc_calls), "ratio")
    put("charprob.quotient.calls", calls.get("charprob.quotient", 0), "count")
    put("charprob.quotient.self_s", self_s.get("charprob.quotient", 0.0), "s")
    mc_self = self_s.get("montecarlo", 0.0)
    draws = counts["montecarlo"]["draws"]
    put("montecarlo.draws", draws, "count")
    put("montecarlo.self_s", mc_self, "s")
    put("montecarlo.draws_per_s", _ratio(draws, mc_self), "1/s")
    put("seminorm.grid_points", counts["seminorm"]["grid_points"], "count")
    put("seminorm.self_s", self_s.get("seminorm", 0.0), "s")
    put("knots.calls", calls.get("knots", 0), "count")
    put("knots.self_s", self_s.get("knots", 0.0), "s")
    for op in operations:
        put(f"harness.{op}.s", total_s.get("harness." + op, 0.0), "s")
    for name in checks:
        put(f"harness.check.{name}.s", total_s.get("harness.check." + name, 0.0), "s")
    return out
