"""Seeded Monte Carlo for the simplex/exponential representations.

All sampling goes through one counter-based Philox stream per master
seed, ``rng_stream(seed)``; a sampler block is positioned in it by its
offset, not drawn from a stream of its own.  Estimates are accumulated in a
fixed block order, making every run bit-reproducible for a given (seed, N):
the Monte Carlo means are formed per block and merged in order, so they
depend on the block partition ``_block_rows(n)``, which n alone fixes.

The block sampler ``_exp_blocks`` fills its stream on every CPU the process
may run on.  Philox is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): it makes 4 doubles per counter
step, so advancing the counter by k // 4 and discarding k % 4 doubles
positions a fresh generator exactly k doubles into the stream, and each
block is filled from its own positioned generator with the bits of the
serial stream.  W pool threads fill the blocks, and the thread that fills a
block also runs the consumer's per-block work on it, a callback
``work(block)`` (the BLAS ``e @ x``, the sines and cosines, the per-block
moments of the trig values and of ``exp_moments``' Exp(1) draws, the cell
counts of ``projection_counts`` and ``mc_pdf_Q``, both by
``_cell_counts``).  The calling thread only merges the blocks' results, in
block order, with at most W + 1 blocks in flight.  One buffer rule holds:
the W block buffers are the only scratch reused from block to block, and
every array the per-block work makes (row sums, projections, sines and
cosines, bins) is made fresh for its block, so a block's result is its own.
The block boundaries do not depend on the worker count, each block's result
depends only on its own rows and on the same ufunc and BLAS calls, and the
merges run in the same order, so no output depends on the worker count.
BLAS is not pinned here: a threaded gemv splits each block between its
threads, so the BLAS thread count can still move the sums in the last bits
(see ``test_projection_samples_chunk_invariant``).
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .knots import KnotVector

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

    The one-block case of the streamed estimates: ``_block_moments`` of one
    copy of ``vals`` (left unchanged), with the bits of ``vals.sum() / N``
    and ``vals.std(ddof=1) / sqrt(N)``.
    """
    buf = np.array(vals, dtype=float)
    if buf.size < 2:
        raise ValueError("N >= 2 required")
    count, mean, m2 = _block_moments(buf)
    return McEstimate(float(mean), math.sqrt(float(m2) / (count - 1)) / math.sqrt(count))


def _block_moments(buf: np.ndarray):
    """(count, mean, M2) along the last axis of ``buf``, which it overwrites.

    Repeats numpy's own ``_var`` steps in place, so no temporary of the
    block's size is made: sum, divide the mean in, subtract it, square,
    sum.  Each step is the same ufunc on the same values, so M2 / (N - 1)
    has the bits of ``var(ddof=1)``.  A ``buf`` of more axes gives one mean
    and M2 per row along the last axis, each with the bits of that row
    reduced on its own: numpy sums every such row pairwise by itself.
    """
    count = buf.shape[-1]
    mean = buf.sum(axis=-1) / count
    np.subtract(buf, mean[..., None], out=buf)
    np.square(buf, out=buf)
    return count, mean, buf.sum(axis=-1)


def _merge_moments(a, b):
    """(count, mean, M2) of two sample sets from theirs (Chan, Golub and LeVeque 1983).

    Works elementwise on arrays of means and M2 with a common count.
    """
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    count = na + nb
    delta = mean_b - mean_a
    return count, mean_a + delta * nb / count, m2_a + m2_b + delta * delta * na * nb / count


def _merge_blocks(blocks):
    """(count, mean, M2) of the blocks' moments merged in block order, and the block count."""
    moments = None
    for merged, block in enumerate(blocks, 1):
        moments = block if moments is None else _merge_moments(moments, block)
    return moments, merged


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


def _exp_blocks(n: int, N: int, seed: int, work):
    """Yield work(block) in block order over N rows of n Exp(1) draws from the seed's stream.

    A block holds _block_rows(n) rows.  Every block is filled from a
    generator positioned at its first row (see the module docstring), so its
    bits are those of the serial stream whatever the block shape.  Every
    consumer works per row or adds integer counts, but BLAS computes
    ``e @ x`` in groups of rows and sums a leftover row in another order.
    Power-of-two blocks put the groups on the same rows for every block
    size; a lone last row, which numpy would send to dot instead, joins the
    block before it.  So no output depends on the block size while a block
    holds at least 4 rows (n <= _BLOCK_FLOATS / 4).

    W pool threads (W = ``_worker_count()``, at most one per block) take
    the blocks in order: the thread that takes a block fills it into a free
    buffer and runs ``work`` on it at once.  The calling thread only merges:
    it yields the results in block order, waiting for the oldest block once
    more than W are in flight, so at most W + 1 blocks are in flight
    whatever N, and a consumer that merges the results as they come merges
    them in the same order whatever W.  At most W blocks are in work at a
    time, so W buffers, made on the calling thread, serve them all (made on
    a pool thread, a buffer can stay resident in that thread's malloc arena
    after it is freed).  Leaving the generator early waits for the blocks
    in flight and leaves no thread running.  These buffers are the only
    reused scratch: ``work`` may use its block as scratch, but the buffer is
    refilled by the next block that takes it, so ``work`` returns
    arrays made fresh for its block, never a view of the block.
    """
    step = _block_rows(n)
    starts = list(range(0, N, step))
    if len(starts) > 1 and N - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [N]
    workers = max(1, min(_worker_count(), len(starts)))
    free = list(np.empty((workers, min(N, step + 1), n)))

    def task(i):
        buf = free.pop()
        try:
            return work(_fill_exp(seed, starts[i] * n, buf[: ends[i] - starts[i]]))
        finally:
            free.append(buf)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = []
        for i in range(len(starts)):
            pending.append(pool.submit(task, i))
            if len(pending) > workers:
                yield pending.pop(0).result()
        for future in pending:
            yield future.result()


def q_blocks(kv: KnotVector, N: int, seed: int, work):
    """Yield work(q1, q2) per sampler block: Q = (sum x_k(P_k-1), n^{-1/2} sum(P_k-1)).

    P - 1 is formed in place in the block, on the thread that filled it,
    which runs ``work`` too (see ``_exp_blocks``).
    """

    def q(e):
        p = np.subtract(e, 1.0, out=e)
        return work(p @ kv.xs, p.sum(axis=1) / math.sqrt(kv.n))

    return _exp_blocks(kv.n, N, seed, q)


def _projection_blocks(kvs, N: int, seed: int, work):
    """Yield work(projs) per sampler block, projs[i] = <x_i, S> on the block's rows.

    Every knot vector, all of one n, sees the same simplex points S.  Per
    block the row sums are formed once and each knot vector takes one gemv,
    with the bits of ``(e @ x) / e.sum(axis=1)``, on the thread that filled
    the block, which runs ``work`` too (see ``_exp_blocks``).  ``projs`` is
    made for its block, so ``work`` may return it.
    """

    def project(e):
        s = np.sum(e, axis=1)
        projs = np.empty((len(kvs), len(e)))
        for kv, proj in zip(kvs, projs):
            np.matmul(e, kv.xs, out=proj)
            np.divide(proj, s, out=proj)
        return work(projs)

    return _exp_blocks(kvs[0].n, N, seed, project)


def exp_moments(N: int, seed: int):
    """(count, mean, M2, blocks) of the first N Exp(1) draws of the seed's stream, streamed.

    The draws are the serial ``sample_exp_vector(N, rng_stream(seed))``,
    taken as N rows of one draw.  Each sampler block is reduced in place by
    ``_block_moments`` on the thread that filled it, and the calling thread
    merges the blocks in block order by ``_merge_moments``, so no N-length
    array is held.  The mean and M2 agree with ``_block_moments`` of the
    serial draws to a few units in the last place, and neither depends on
    the worker count.  ``blocks`` is the number of blocks merged.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    moments, blocks = _merge_blocks(_exp_blocks(1, N, seed, lambda e: _block_moments(e[:, 0])))
    return (*moments, blocks)


def simplex_projection_samples(kv: KnotVector, N: int, seed: int) -> np.ndarray:
    """N draws of <x, S> for S uniform on the simplex, in block order.

    The calling thread copies each block's projections into the result as the blocks come.
    """
    out = np.empty(N)
    pos = 0
    for proj in _projection_blocks([kv], N, seed, lambda projs: projs[0]):
        out[pos : pos + proj.size] = proj
        pos += proj.size
    return out


def char_estimates(kvs, N: int, seed: int, xis):
    """Means and standard errors of cos and sin of n*xi*<x, S>, from one pass.

    The knot vectors, all of one n, share N simplex points S of the seed's
    stream.  Per sampler block, on the thread that filled it, one array made
    for the block takes n*xi*<x, S> for every knot vector and xi, and its
    cosines and sines; ``_block_moments`` reduces each of their rows in place
    to (count, mean, M2), and the calling thread merges the blocks in block
    order by ``_merge_moments``.  So the scratch is a few block-sized
    arrays per block in work whatever N, and the estimates depend on the block
    partition ``_block_rows(n)`` but not on the worker count.  With one
    block they are the bits of ``estimate``; with more they differ from it
    by rounding, a few units in the last place at N = 1e6.

    Returns (means, std_errors), each of shape (2, len(kvs), len(xis)):
    index 0 of the first axis is the cosine, 1 the sine.
    """
    if N < 2:
        raise ValueError("N >= 2 required")
    scales = kvs[0].n * np.asarray(xis, dtype=float)

    def reduce(projs):
        w = np.empty((2, len(kvs), scales.size, projs.shape[1]))
        np.multiply(scales[:, None], projs[:, None, :], out=w[0])
        np.sin(w[0], out=w[1])
        np.cos(w[0], out=w[0])
        return _block_moments(w)

    (count, means, m2s), _ = _merge_blocks(_projection_blocks(kvs, N, seed, reduce))
    return means, np.sqrt(m2s / (count - 1)) / math.sqrt(count)


def projection_counts(kv: KnotVector, N: int, seed: int, edges: np.ndarray) -> np.ndarray:
    """Counts of N draws of <x, S> in the cells of ``edges``, equal cells as np.linspace makes them.

    Each block is counted by ``_cell_counts`` on the thread that filled it,
    and the caller adds the blocks' counts: the intp counts of ``np.histogram``.
    """
    blocks = _projection_blocks([kv], N, seed, lambda projs: _cell_counts(edges, projs[0]))
    return sum(blocks, np.zeros(edges.size - 1, dtype=np.intp))


def mc_pdf_Q(kv: KnotVector, N: int, seed: int) -> np.ndarray:
    """Counts of N draws of Q = (sum x_k(P_k-1), n^{-1/2} sum(P_k-1)) in the cells of default_grid().

    Each block is counted by ``_cell_counts`` on both axes on the thread
    that filled it, and the calling thread adds the blocks' counts, which
    gives the float64 counts of ``np.histogram2d``.
    """
    edges = default_grid()
    blocks = q_blocks(kv, N, seed, lambda q1, q2: _cell_counts(edges, q1, q2))
    return sum(blocks, np.zeros(_HIST_BINS * _HIST_BINS)).reshape(_HIST_BINS, _HIST_BINS)


def _cell_counts(edges: np.ndarray, *axes: np.ndarray) -> np.ndarray:
    """Counts of the points whose coordinates are ``axes`` in the cells of ``edges`` on every axis.

    A point outside the edges on any axis (or NaN) falls in no cell; the
    others are binned by ``_equal_width_bins`` on each axis, and one
    ``bincount`` counts the cells, the last axis varying fastest.
    """
    bins = edges.size - 1
    keep = np.logical_and.reduce([(q >= edges[0]) & (q <= edges[-1]) for q in axes])
    cell = 0
    for q in axes:
        cell = cell * bins + _equal_width_bins(q[keep], edges)
    return np.bincount(cell, minlength=bins ** len(axes))


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
    """Default binning: the edges of 40 equal bins over mean +- 5 sigma, for both axes."""
    return np.linspace(-5.0, 5.0, _HIST_BINS + 1)


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
