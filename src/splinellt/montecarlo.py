"""Seeded Monte Carlo for the simplex/exponential representations.

All sampling goes through counter-based Philox streams keyed by
(master seed, stream index), so parallel callers can claim disjoint
deterministic streams.  Estimates are accumulated in a fixed block order,
making every run bit-reproducible for a given (seed, N).
"""

import math
from dataclasses import dataclass

import numpy as np

from .knots import KnotVector
from .splines import bspline_stable

_BLOCK_FLOATS = 1 << 16
_HIST_BINS = 40


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class Histogram2D:
    edges1: np.ndarray
    edges2: np.ndarray
    density: np.ndarray
    std_error: np.ndarray
    counts: np.ndarray
    n_samples: int
    seed: int


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the given (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def sample_exp_vector(n: int, rng: np.random.Generator, rows: int | None = None) -> np.ndarray:
    """n iid Exp(1) draws by the inverse CDF -ln(1 - U); shape (rows, n) if rows is given."""
    return -np.log1p(-rng.random(n if rows is None else (rows, n)))


def sample_simplex(n: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform point on the standard simplex (normalized exponentials)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    e = sample_exp_vector(n, rng)
    return e / e.sum()


def _estimate(total, total_sq, count, seed) -> McEstimate:
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0) * count / (count - 1)
    return McEstimate(
        mean=mean, std_error=math.sqrt(var / count), n_samples=count, seed=seed
    )


def _exp_blocks(n: int, N: int, seed: int):
    """Yield (pos, block) over N rows of n Exp(1) draws from stream (seed, 0).

    A block holds the largest power of two of rows that fits in
    _BLOCK_FLOATS values, at least one row, the first being row pos.
    Philox fills the doubles in stream order whatever the block shape, and
    every consumer works per row or adds integer counts, but BLAS computes
    ``e @ x`` in groups of rows and sums a leftover row in another order.
    Power-of-two blocks put the groups on the same rows for every block
    size; a lone last row, which numpy would send to dot instead, joins the
    block before it.  So no output depends on the block size while a block
    holds at least 4 rows (n <= _BLOCK_FLOATS / 4).
    """
    rng = rng_stream(seed)
    step = 1 << max(0, (_BLOCK_FLOATS // n).bit_length() - 1)
    starts = list(range(0, N, step))
    if len(starts) > 1 and N - starts[-1] == 1:
        starts.pop()
    for pos, end in zip(starts, starts[1:] + [N]):
        yield pos, sample_exp_vector(n, rng, rows=end - pos)


def _q_blocks(kv: KnotVector, N: int, seed: int):
    """Yield (q1, q2) per sampler block: Q = (sum x_k(P_k-1), n^{-1/2} sum(P_k-1))."""
    for _, e in _exp_blocks(kv.n, N, seed):
        p = e - 1.0
        yield p @ kv.xs, p.sum(axis=1) / math.sqrt(kv.n)


def simplex_projection_samples(kv: KnotVector, N: int, seed: int) -> np.ndarray:
    """N draws of <x, S> for S uniform on the simplex, in block order."""
    out = np.empty(N)
    for pos, e in _exp_blocks(kv.n, N, seed):
        out[pos : pos + len(e)] = (e @ kv.xs) / e.sum(axis=1)
    return out


def mc_char_simplex(kv: KnotVector, xi: float, N: int, seed: int):
    """MC means of cos and sin of n*xi*<x, Unif simplex>, with standard errors."""
    if N < 2:
        raise ValueError("N >= 2 required")
    u = kv.n * xi * simplex_projection_samples(kv, N, seed)
    c, s = np.cos(u), np.sin(u)
    cos_est = _estimate(float(c.sum()), float((c * c).sum()), N, seed)
    sin_est = _estimate(float(s.sum()), float((s * s).sum()), N, seed)
    return cos_est, sin_est


def mc_pdf_Q(kv: KnotVector, N: int, grid2d, seed: int) -> Histogram2D:
    """Normalized 2-D histogram of Q = (sum x_k(P_k-1), n^{-1/2} sum(P_k-1)).

    Per-cell standard errors use the Poisson count approximation
    sqrt(count) / (N * cell area).
    """
    edges1, edges2 = (np.asarray(e, dtype=float) for e in grid2d)
    counts = np.zeros((edges1.size - 1, edges2.size - 1))
    for q1, q2 in _q_blocks(kv, N, seed):
        h, _, _ = np.histogram2d(q1, q2, bins=(edges1, edges2))
        counts += h
    area = np.multiply.outer(np.diff(edges1), np.diff(edges2))
    density = counts / (N * area)
    std_error = np.sqrt(counts) / (N * area)
    return Histogram2D(edges1, edges2, density, std_error, counts, N, seed)


def default_grid():
    """Default binning: 40 equal bins over mean +- 5 sigma on both axes."""
    e = np.linspace(-5.0, 5.0, _HIST_BINS + 1)
    return e, e.copy()


def mc_divided_difference(kv: KnotVector, f_deriv, N: int, seed: int) -> McEstimate:
    """Simplex-integral estimate of a divided difference.

    ``f_deriv`` must be the analytic (n-1)-th derivative of f; the estimate
    is its simplex average divided by (n-1)!.
    """
    proj = simplex_projection_samples(kv, N, seed)
    vals = np.asarray(f_deriv(proj), dtype=float) / math.factorial(kv.n - 1)
    return _estimate(float(vals.sum()), float((vals * vals).sum()), N, seed)


def density_histogram_check(kv: KnotVector, N: int, seed: int):
    """Compare (n-1) B against a histogram of simplex projections.

    Returns (max abs deviation in SE units over retained cells, retained
    cell count); cells with fewer than 20 expected counts are dropped.
    """
    proj = simplex_projection_samples(kv, N, seed)
    lo, hi = float(kv.xs[0]), float(kv.xs[-1])
    edges = np.linspace(lo, hi, _HIST_BINS + 1)
    counts, _ = np.histogram(proj, bins=edges)
    width = np.diff(edges)
    density = counts / (N * width)
    se = np.sqrt(np.maximum(counts, 1)) / (N * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = (kv.n - 1) * bspline_stable(kv, centers)
    expected = model * N * width
    keep = expected >= 20
    dev = np.abs(density[keep] - model[keep]) / se[keep]
    return float(dev.max()) if keep.any() else 0.0, int(keep.sum())
