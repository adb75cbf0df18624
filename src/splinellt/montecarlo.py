"""Seeded Monte Carlo for the simplex/exponential representations.

All sampling goes through one counter-based Philox stream per master
seed, ``rng_stream(seed)``; a sampler block is positioned in it by its
offset, not drawn from a stream of its own.  Estimates are accumulated in a
fixed block order, making every run bit-reproducible for a given (seed, N).

The block sampler ``_exp_blocks`` fills its stream on every CPU the process
may run on.  Philox is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): it makes 4 doubles per counter
step, so advancing the counter by k // 4 and discarding k % 4 doubles
positions a fresh generator exactly k doubles into the stream, and each
block is filled from its own positioned generator with the bits of the
serial stream.  The block boundaries do not depend on the worker count, and
every consumer of a block (the BLAS ``e @ x``, the histogram adds) runs on
the calling thread in block order, so no output depends on the worker
count.  BLAS is not pinned here: a threaded gemv splits each block between
its threads, so the BLAS thread count can still move the sums in the last
bits (see ``test_projection_samples_chunk_invariant``).
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .knots import KnotVector
from .splines import bspline_stable

_BLOCK_FLOATS = 1 << 16
_HIST_BINS = 40


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


def rng_stream(seed: int) -> np.random.Generator:
    """Counter-based generator of the seed's one stream; the seed is a 64-bit key.

    The key is built as uint64: numpy would turn a list holding a seed of
    2^63 or more into float64, rounding it onto a neighbour's stream.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _exp_in_place(u: np.ndarray) -> np.ndarray:
    """Turn U[0, 1) draws into Exp(1) in place, bit for bit -log1p(-u)."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def sample_exp_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid Exp(1) draws by the inverse CDF -ln(1 - U)."""
    return _exp_in_place(rng.random(n))


def estimate(vals: np.ndarray) -> McEstimate:
    """Mean of the samples and its standard error std(ddof=1) / sqrt(N).

    Works on one copy of ``vals`` (left unchanged) through ``_estimate_in_place``,
    with the bits of ``vals.sum() / N`` and ``vals.std(ddof=1) / sqrt(N)``.
    """
    return _estimate_in_place(np.array(vals, dtype=float))


def _estimate_in_place(buf: np.ndarray) -> McEstimate:
    """``estimate`` of the samples in ``buf``, which it overwrites.

    Repeats numpy's own ``_var`` steps in place, so no N-length temporary is
    made: sum, divide the mean in, subtract it, square, sum, divide by N - 1,
    square root.  Each step is the same ufunc on the same values, so the
    mean and the standard error are bit-identical to ``estimate``'s
    definition.
    """
    N = buf.size
    if N < 2:
        raise ValueError("N >= 2 required")
    mean = float(buf.sum()) / N
    np.subtract(buf, mean, out=buf)
    np.square(buf, out=buf)
    std = math.sqrt(float(buf.sum()) / (N - 1))
    return McEstimate(mean, std / math.sqrt(N))


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block_rows(n: int) -> int:
    """Rows per sampler block: the largest power of two within _BLOCK_FLOATS values."""
    return 1 << max(0, (_BLOCK_FLOATS // n).bit_length() - 1)


def _fill_exp(seed: int, offset: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with Exp(1) draws offset..offset+out.size of the seed's stream."""
    rng = rng_stream(seed)
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    rng.random(out=out)
    return _exp_in_place(out)


def _exp_blocks(n: int, N: int, seed: int):
    """Yield (pos, block) over N rows of n Exp(1) draws from the seed's stream.

    A block holds _block_rows(n) rows, the first being row pos.  Every
    block is filled from a generator positioned at row pos (see the module
    docstring), so its bits are those of the serial stream whatever the
    block shape.  Every consumer works per row or adds integer counts, but
    BLAS computes ``e @ x`` in groups of rows and sums a leftover row in
    another order.  Power-of-two blocks put the groups on the same rows for
    every block size; a lone last row, which numpy would send to dot
    instead, joins the block before it.  So no output depends on the block
    size while a block holds at least 4 rows (n <= _BLOCK_FLOATS / 4).

    With W workers (``_worker_count()``, at most one per block) the calling
    thread fills every W-th block and W - 1 threads fill the blocks between,
    up to about two blocks each ahead of it, into a ring of 3W - 2
    preallocated buffers; a block that no thread has started by the time it
    is due is filled by the caller.  With W = 1 no thread is started.
    Blocks are still yielded on the calling thread in order, so every
    consumer, BLAS included, runs there as it would serially.  A yielded
    block is a view into the ring: it is valid only until the next
    iteration, and a consumer that keeps it must copy it.
    """
    step = _block_rows(n)
    starts = list(range(0, N, step))
    if len(starts) > 1 and N - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [N]
    workers = max(1, min(_worker_count(), len(starts)))
    ring = np.empty((min(3 * workers - 2, len(starts)), min(N, step + 1), n))

    def fill(i):
        return _fill_exp(seed, starts[i] * n, ring[i % len(ring), : ends[i] - starts[i]])

    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers - 1)
    ahead = {}
    queued = 1
    try:
        for i, pos in enumerate(starts):
            # block i - 1 is consumed, so the ring may run up to block i + len(ring) - 1
            while queued < min(i + len(ring), len(starts)):
                if queued % workers:
                    ahead[queued] = pool.submit(fill, queued)
                queued += 1
            # a block no worker has started yet is filled here instead
            task = ahead.pop(i, None)
            yield pos, fill(i) if task is None or task.cancel() else task.result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def q_blocks(kv: KnotVector, N: int, seed: int):
    """Yield (q1, q2) per sampler block: Q = (sum x_k(P_k-1), n^{-1/2} sum(P_k-1))."""
    for _, e in _exp_blocks(kv.n, N, seed):
        p = e - 1.0
        yield p @ kv.xs, p.sum(axis=1) / math.sqrt(kv.n)


def simplex_projections(kvs, N: int, seed: int) -> list[np.ndarray]:
    """N draws of <x, S> for each knot vector, all of one n, from one pass.

    Every knot vector sees the same simplex points S.  Per block the row
    sums are formed once and each knot vector takes one gemv, into
    preallocated arrays, with the bits of ``(e @ x) / e.sum(axis=1)``.
    """
    n = kvs[0].n
    outs = [np.empty(N) for _ in kvs]
    sums = np.empty(min(N, _block_rows(n) + 1))
    for pos, e in _exp_blocks(n, N, seed):
        s = np.sum(e, axis=1, out=sums[: len(e)])
        for kv, out in zip(kvs, outs):
            proj = np.matmul(e, kv.xs, out=out[pos : pos + len(e)])
            np.divide(proj, s, out=proj)
    return outs


def simplex_projection_samples(kv: KnotVector, N: int, seed: int) -> np.ndarray:
    """N draws of <x, S> for S uniform on the simplex, in block order."""
    return simplex_projections([kv], N, seed)[0]


def char_estimates(kv: KnotVector, proj: np.ndarray, xis):
    """(cos, sin) McEstimates of n*xi*proj for each xi, over the projection samples.

    One N-length buffer serves every xi: for the cosine and then the sine
    it is filled with n*xi*proj, passed through the trig function in place
    and reduced in place by ``_estimate_in_place``.  So the estimates hold
    one buffer beside ``proj``, and their bits are those of ``estimate``.
    """
    buf = np.empty(proj.size)
    out = []
    for xi in xis:
        pair = []
        for trig in (np.cos, np.sin):
            np.multiply(kv.n * xi, proj, out=buf)
            pair.append(_estimate_in_place(trig(buf, out=buf)))
        out.append(tuple(pair))
    return out


def mc_pdf_Q(kv: KnotVector, N: int, grid2d, seed: int) -> np.ndarray:
    """Counts of N draws of Q = (sum x_k(P_k-1), n^{-1/2} sum(P_k-1)) in the cells of grid2d.

    Both axes need equal-width edges, ``np.linspace(e[0], e[-1], e.size)``
    (ValueError otherwise), as ``default_grid`` makes.  Each block is binned
    by ``_equal_width_bins`` and counted with one ``bincount``, which gives
    the counts of ``np.histogram2d``.  ``histogram_deviation`` compares them
    against a density.
    """
    edges1, edges2 = (np.asarray(e, dtype=float) for e in grid2d)
    for e in (edges1, edges2):
        equal_width = e.size >= 2 and np.array_equal(e, np.linspace(e[0], e[-1], e.size))
        if not (equal_width and e[-1] > e[0]):
            raise ValueError("mc_pdf_Q needs equal-width edges np.linspace(e[0], e[-1], e.size)")
    cells = (edges1.size - 1) * (edges2.size - 1)
    counts = np.zeros(cells)
    for q1, q2 in q_blocks(kv, N, seed):
        # draws outside the edges (and NaN) fall in no cell
        keep = (q1 >= edges1[0]) & (q1 <= edges1[-1]) & (q2 >= edges2[0]) & (q2 <= edges2[-1])
        cell = _equal_width_bins(q1[keep], edges1) * (edges2.size - 1)
        cell += _equal_width_bins(q2[keep], edges2)
        counts += np.bincount(cell, minlength=cells)
    return counts.reshape(edges1.size - 1, edges2.size - 1)


def _equal_width_bins(q: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each q in [edges[0], edges[-1]] over linspace edges, as ``np.histogram`` bins it.

    The bin is guessed as floor((q - e0) / (e_last - e0) * bins) and moved
    by one where the actual edges disagree, so edges[i] <= q < edges[i + 1],
    with q == e_last in the last bin.
    """
    bins = edges.size - 1
    idx = ((q - edges[0]) / (edges[-1] - edges[0]) * bins).astype(np.intp)
    idx[idx == bins] -= 1
    idx[q < edges[idx]] -= 1
    idx[(q >= edges[idx + 1]) & (idx != bins - 1)] += 1
    return idx


def default_grid():
    """Default binning: 40 equal bins over mean +- 5 sigma on both axes."""
    e = np.linspace(-5.0, 5.0, _HIST_BINS + 1)
    return e, e.copy()


def histogram_deviation(model, counts, N: int, cell):
    """Largest |counts / (N cell) - model| in standard errors, and the cells it covers.

    The standard error of a cell is sqrt(max(count, 1)) / (N cell), so a cell
    that got no draw still counts.  Only the cells where the model expects
    at least 20 draws are compared; if there is none, InsufficientData.
    """
    keep = model * N * cell >= 20
    if not keep.any():
        raise InsufficientData("no histogram cell expects 20 draws")
    density = counts / (N * cell)
    se = np.sqrt(np.maximum(counts, 1)) / (N * cell)
    dev = np.abs(density[keep] - model[keep]) / se[keep]
    return float(dev.max()), int(keep.sum())


def density_histogram_check(kv: KnotVector, N: int, seed: int):
    """Compare (n-1) B at the cell midpoints against a histogram of simplex projections.

    Returns ``histogram_deviation`` over 40 equal cells spanning the knots.
    """
    proj = simplex_projection_samples(kv, N, seed)
    edges = np.linspace(float(kv.xs[0]), float(kv.xs[-1]), _HIST_BINS + 1)
    counts, _ = np.histogram(proj, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = (kv.n - 1) * bspline_stable(kv, centers)
    return histogram_deviation(model, counts, N, np.diff(edges))
