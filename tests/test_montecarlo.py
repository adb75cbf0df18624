import ast
import math
import sys
import threading
import time

import numpy as np
import pytest

from splinellt import charprob, harness, knots, montecarlo, splines
from splinellt.errors import InsufficientData


def test_streams_deterministic_and_disjoint():
    a = montecarlo.rng_stream(123).random(10)
    b = montecarlo.rng_stream(123).random(10)
    c = montecarlo.rng_stream(124).random(10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # every 64-bit seed keys its own stream, the top ones included; a list
    # key would pass through float64 and round 2^63 + 1 onto 2^63, 2^64 - 1 onto 0
    for s, t in [(2**63, 2**63 + 1), (0, 2**64 - 1)]:
        assert montecarlo.rng_stream(s).random() != montecarlo.rng_stream(t).random()
    # a seed past 64 bits would share the draws of the seed 2^64 below it
    with pytest.raises(ValueError):
        montecarlo.rng_stream(2**64 + 1)


def test_exp_moments():
    draws = montecarlo.sample_exp_vector(10**6, montecarlo.rng_stream(0))
    assert np.all(draws >= 0)
    assert draws.mean() == pytest.approx(1.0, abs=5e-3)
    assert draws.var(ddof=1) == pytest.approx(1.0, abs=2e-2)


def test_exp_rows_match_inverse_cdf():
    # rows of n consecutive draws are the draw order the block sampler relies on
    a = montecarlo.sample_exp_vector(3 * 5, montecarlo.rng_stream(7)).reshape(3, 5)
    b = -np.log1p(-montecarlo.rng_stream(7).random((3, 5)))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4 * 1001, 4 * 1001 + 1, 4 * 1001 + 2, 4 * 1001 + 3])
def test_positioned_stream_matches_serial(k):
    # Philox makes 4 doubles per counter step: the positioned generator
    # advances k // 4 steps and discards k % 4 doubles
    serial = montecarlo.sample_exp_vector(k + 37, montecarlo.rng_stream(11))
    out = np.empty(37)
    np.testing.assert_array_equal(montecarlo._fill_exp(11, k, out), serial[k:])


def test_montecarlo_loads_no_spline_code(run_python):
    # the module samples and counts; the densities it is compared with are
    # built beside their checks in harness
    script = "import sys, splinellt.montecarlo; print(*sorted(m for m in sys.modules if 'splinellt' in m))"
    loaded = run_python("-c", script).split()
    assert "splinellt.splines" not in loaded
    assert loaded == ["splinellt", "splinellt.errors", "splinellt.knots", "splinellt.montecarlo"]


def test_only_the_walker_and_the_closeness_integral_write_t_into_buffers():
    # a table of t over a grid of xi is made by charprob's one walker; the
    # closeness integral's t = r u walk is its one exception
    tree = ast.parse(open(charprob.__file__, encoding="utf-8").read())
    writers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_tk"
        and (len(call.args) > 3 or any(kw.arg == "out" for kw in call.keywords))
    }
    assert writers == {"_t_blocks", "char_diff_integral"}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n, N", [(5, 70001), (8, 20001), (2**15 + 1, 9), (2**16 + 3, 7)])
def test_blocks_are_the_serial_stream(monkeypatch, workers, n, N):
    # one- and two-row blocks at n = 2^15+1 and 2^16+3 start at offsets that
    # are not multiples of 4 doubles
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)

    def held(e):
        time.sleep(1e-3)  # the other threads fill other buffers while this one is held
        return e.copy()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        blocks = list(montecarlo._exp_blocks(n, N, 4, held))
    finally:
        sys.setswitchinterval(interval)
    serial = montecarlo.sample_exp_vector(n * N, montecarlo.rng_stream(4)).reshape(N, n)
    np.testing.assert_array_equal(np.concatenate(blocks), serial)


@pytest.mark.parametrize("workers", [1, 3])
def test_leaving_the_blocks_early_stops_the_workers(monkeypatch, workers):
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
    before = threading.active_count()
    for _ in montecarlo._exp_blocks(8, 10**5, 1, lambda e: None):
        break
    assert threading.active_count() == before


_OUTPUTS_SCRIPT = """
import numpy as np
from splinellt import knots, montecarlo


def outputs(kv, N):
    # the projections, the mc_pdf_Q counts and the samples of
    # harness.check_mc_covariance, which reads montecarlo.q_blocks
    proj = montecarlo.simplex_projection_samples(kv, N, seed=3)
    counts = montecarlo.mc_pdf_Q(kv, N, seed=3)
    q = np.concatenate(list(montecarlo.q_blocks(kv, N, 3, lambda q1, q2: np.column_stack((q1, q2)))))
    return proj, counts, q


def assert_all_equal(runs):
    for run in runs[1:]:
        for a, b in zip(run, runs[0]):
            np.testing.assert_array_equal(a, b)
"""

_BLOCK_SIZE_SCRIPT = _OUTPUTS_SCRIPT + """
# block sizes from 4 rows per block (2^10 floats at n = 256) to every row
# in one block (2^20 floats at n <= 8), then 1, 2 and 3 workers at the
# default size, where every block buffer is refilled at every n here; N is a
# multiple of none of the sizes, and 20001 leaves a lone last row at 4 to 32
# rows per block
for n, N in [(5, 70001), (8, 70001), (100, 20001), (256, 20001)]:
    kv = knots.family("uniform_random", n, seed=9)
    runs = []
    for block_floats, workers in [(1 << 10, 1), (1 << 20, 1), (1 << 16, 1), (1 << 16, 2), (1 << 16, 3)]:
        montecarlo._BLOCK_FLOATS = block_floats
        montecarlo._worker_count = lambda: workers
        runs.append(outputs(kv, N))
    assert_all_equal(runs)
    # <x, S> is a convex combination of the knots
    assert np.all(np.abs(runs[0][0]) <= np.max(np.abs(kv.xs)) + 1e-12)

# one- and two-row blocks, whose sums BLAS groups differently from larger
# ones, so only the worker count varies
montecarlo._BLOCK_FLOATS = 1 << 16
for kind, n, N in [("chebyshev", 2**15 + 1, 9), ("equispaced", 2**16 + 3, 7)]:
    kv = knots.family(kind, n)
    runs = []
    for workers in (1, 2, 3):
        montecarlo._worker_count = lambda: workers
        runs.append(outputs(kv, N))
    assert_all_equal(runs)
"""

_WORKER_COUNT_SCRIPT = _OUTPUTS_SCRIPT + """
for kind, n, N in [("uniform_random", 5, 70001), ("uniform_random", 16, 100003),
                   ("uniform_random", 100, 20001), ("chebyshev", 2**15 + 1, 9)]:
    kv = knots.family(kind, n, seed=9)
    runs = []
    for workers in (1, 2, 3):
        montecarlo._worker_count = lambda: workers
        runs.append(outputs(kv, N))
    assert_all_equal(runs)
"""

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_projection_samples_chunk_invariant(run_python):
    # block accumulation is fixed-order: the outputs do not depend on how N
    # is split into blocks, nor on how many threads fill them.  Run in a fresh interpreter with BLAS on one
    # thread, as the benchmark runs
    # it: a threaded gemv splits each block between threads at half its
    # rows, so the rows after the split are grouped, and summed, in an
    # order that depends on the block's size
    run_python("-c", _BLOCK_SIZE_SCRIPT, env=dict.fromkeys(_BLAS_THREADS, "1"))


def test_projection_samples_worker_invariant_at_default_blas(run_python):
    # each block's gemv runs on the thread that filled it, beside the other
    # threads' gemvs; with BLAS at its default thread count too, the outputs
    # do not depend on the worker count
    run_python("-c", _WORKER_COUNT_SCRIPT, env=dict.fromkeys(_BLAS_THREADS))


def test_outputs_keep_their_bytes_whatever_the_worker_count(monkeypatch):
    # twelve blocks at n = 8, and twelve of the streamed Exp(1) moments at
    # n = 1, the last with a lone extra row; the covariance check's
    # per-block sums are recorded as its q_blocks yields them
    kv = knots.family("uniform_random", 8, seed=6)
    N = 12 * 8192 + 1
    edges = np.linspace(float(kv.xs[0]), float(kv.xs[-1]), 41)
    sums = []
    q_blocks = montecarlo.q_blocks

    def recorded(*args):
        for block in q_blocks(*args):
            sums.append(b"".join(a.tobytes() for a in block))
            yield block

    def outputs():
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "q_blocks", recorded)
            harness.check_mc_covariance(6)
        return [
            montecarlo.simplex_projection_samples(kv, N, 6).tobytes(),
            montecarlo.mc_pdf_Q(kv, N, 6).tobytes(),
            *(a.tobytes() for a in montecarlo.char_estimates([kv], N, 6, (0.4, 2.0))),
            np.array(montecarlo.exp_moments(12 * 65536 + 1, 6)).tobytes(),
            montecarlo.projection_counts(kv, N, 6, edges).tobytes(),
            b"".join(sums),
        ]

    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        sums.clear()
        runs.append(outputs())
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_block_work_runs_on_the_filling_threads(monkeypatch):
    # each block's per-block steps run on the pool thread that filled it, so
    # with two workers they run on both pool threads and never on the
    # caller, which only merges
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    threads = []

    def recorded(step):
        def run(*args):
            threads.append(threading.get_ident())
            return step(*args)

        return run

    for name in ("_block_moments", "_equal_width_bins"):
        monkeypatch.setattr(montecarlo, name, recorded(getattr(montecarlo, name)))
    kv = knots.family("uniform_random", 8, seed=1)
    N = 40 * 8192
    edges = np.linspace(float(kv.xs[0]), float(kv.xs[-1]), 41)
    for run in (
        lambda: montecarlo.char_estimates([kv], N, 1, (1.0,)),
        lambda: montecarlo.exp_moments(8 * N, 1),
        lambda: montecarlo.mc_pdf_Q(kv, N, 1),
        lambda: montecarlo.projection_counts(kv, N, 1, edges),
    ):
        threads.clear()
        run()
        assert len(set(threads)) > 1
        assert threading.get_ident() not in threads


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_projections_are_their_own(monkeypatch, workers):
    # each block's projections are made for it, so the blocks that work
    # returns, kept together, are still the samples; a buffer reused by the
    # thread that fills the next block would overwrite them
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
    kv = knots.family("uniform_random", 8, seed=2)
    N = 7 * 8192 + 5
    kept = list(montecarlo._projection_blocks([kv], N, 3, lambda projs: projs[0]))
    assert len(kept) == 8
    assert np.concatenate(kept).tobytes() == montecarlo.simplex_projection_samples(kv, N, 3).tobytes()


def test_mc_char_at_zero():
    # cos 0 = 1 in every block, so each block's mean is 1.0 and its M2 is 0,
    # and merging them keeps both exact; sin 0 = 0 likewise
    for kind, N in [("equispaced", 1000), ("uniform_random", 10**5 + 1)]:
        kv = knots.family(kind, 6, seed=2)
        means, ses = montecarlo.char_estimates([kv], N, 1, (0.0,))
        assert means.shape == ses.shape == (2, 1, 1)
        assert means.ravel().tolist() == [1.0, 0.0] and ses.ravel().tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        montecarlo.char_estimates([kv], 1, 1, (0.0,))


def test_estimate_needs_two_samples():
    # one sample has no standard error: refuse rather than return NaN
    kv = knots.family("equispaced", 6)
    with pytest.raises(ValueError):
        montecarlo.estimate(np.array([1.0]))
    with pytest.raises(ValueError):
        montecarlo.estimate(np.exp(montecarlo.simplex_projection_samples(kv, 1, seed=1)))


def test_char_estimates_match_one_xi_at_a_time():
    # the block buffer reused across xi carries nothing from one xi to the
    # next; within one sampler block (8192 rows at n = 8, 8193 with a lone
    # last row) the in-place body has the bits of numpy's mean and
    # std(ddof=1) at the pairwise-summation boundaries, and the blocks merged
    # by Chan's rule agree with them to rounding
    kv = knots.family("uniform_random", 8, seed=3)
    xis = (0.0, 0.7, 2.5)
    for N in (2, 8, 9, 127, 128, 129, 8192, 8193, 10**6 + 3):
        together = montecarlo.char_estimates([kv], N, 2, xis)
        alone = [montecarlo.char_estimates([kv], N, 2, (xi,)) for xi in xis]
        for arr, parts in zip(together, zip(*alone)):
            assert arr.tobytes() == np.concatenate(parts, axis=-1).tobytes()
        proj = montecarlo.simplex_projection_samples(kv, N, seed=2)
        for x, xi in enumerate(xis):
            for t, trig in enumerate((np.cos, np.sin)):
                est = montecarlo.McEstimate(*(float(arr[t, 0, x]) for arr in together))
                vals = trig(kv.n * xi * proj)
                kept = vals.copy()
                expected = montecarlo.McEstimate(
                    float(vals.sum()) / N, float(vals.std(ddof=1)) / math.sqrt(N)
                )
                assert montecarlo.estimate(vals) == expected
                np.testing.assert_array_equal(vals, kept)
                if N <= 8193:
                    assert est == expected
                else:
                    assert est.mean == pytest.approx(expected.mean, rel=1e-14, abs=0)
                    assert est.std_error == pytest.approx(expected.std_error, rel=1e-14, abs=0)


def test_char_estimates_shared_pass_and_worker_count(monkeypatch):
    # each knot vector gets the bits of its own pass, and the blocks merge
    # in block order whatever the number of threads that fill them
    kvs = [knots.family(kind, 8, seed=4) for kind in ("equispaced", "uniform_random", "chebyshev")]
    xis = (0.5, 2.0)
    N = 5 * 8192 + 3
    shared = [arr.tobytes() for arr in montecarlo.char_estimates(kvs, N, 7, xis)]
    own = [montecarlo.char_estimates([kv], N, 7, xis) for kv in kvs]
    assert shared == [np.concatenate(parts, axis=1).tobytes() for parts in zip(*own)]
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        assert [arr.tobytes() for arr in montecarlo.char_estimates(kvs, N, 7, xis)] == shared


def test_streamed_exp_moments_match_serial_draws():
    # twelve blocks of 65536 draws, the last with the lone extra draw, merged
    # in order: within rounding of the serial draws reduced as one block
    N = 12 * 65536 + 1
    count, mean, m2, blocks = montecarlo.exp_moments(N, 5)
    serial = montecarlo.sample_exp_vector(N, montecarlo.rng_stream(5))
    ref_count, ref_mean, ref_m2 = montecarlo._block_moments(serial)
    assert (count, blocks) == (ref_count, 12)
    assert abs(mean - ref_mean) <= 4 * np.spacing(ref_mean)
    assert m2 == pytest.approx(ref_m2, rel=1e-12)
    with pytest.raises(ValueError):
        montecarlo.exp_moments(0, 5)


def test_char_estimates_hold_one_buffer(monkeypatch, traced_peak):
    # block-sized arrays only, whatever N: with two workers pinned here, two
    # block buffers and the projections and trig values made for each of
    # the at most W + 1 blocks in flight, about 1.9 MB; submitting every
    # block at once read 2.1 MB, the ring of 3W - 2 blocks that the caller
    # consumed peaked at 2.6 MB, and the N-length projections and estimate
    # buffer at about 3 * 8N bytes
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    kv = knots.family("equispaced", 8)
    _, peak = traced_peak(montecarlo.char_estimates, [kv], 10**6, 1, (0.3, 1.0))
    assert peak <= 2.4e6


def test_mc_char_gaussian_limit():
    kv = knots.family("equispaced", 64)
    xi = 1.0
    means, _ = montecarlo.char_estimates([kv], 2 * 10**5, 11, (xi,))
    c, s = means.ravel()
    # bias is O(m^3); at n=64 that is ~0.1, noise ~1e-3
    assert abs(c - math.exp(-xi * xi / 2)) < 0.05
    assert abs(s) < 0.02


def test_histogram_counts_and_density():
    kv = knots.family("uniform_random", 6, seed=4)
    edges = montecarlo.default_grid()
    counts = montecarlo.mc_pdf_Q(kv, 10**5, seed=2)
    assert counts.shape == (edges.size - 1, edges.size - 1)
    assert counts.sum() <= 10**5
    area = np.multiply.outer(np.diff(edges), np.diff(edges))
    density = counts / (10**5 * area)
    mass = float((density * area).sum())
    assert 0.97 < mass <= 1.0 + 1e-12


def test_mc_pdf_Q_counts_match_histogram2d(monkeypatch):
    # values exactly at every edge, one ulp either side of it, at the last
    # edge and outside the range land in the cells np.histogram2d gives them
    edges = montecarlo.default_grid()
    rng = np.random.default_rng(5)
    e = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    q1 = np.concatenate(
        [e, [edges[-1]] * 5, [-7.0, 5.5, np.inf, -np.inf], rng.uniform(-6, 6, 400)]
    )
    q2 = rng.permutation(np.concatenate([e, rng.uniform(-6, 6, q1.size - e.size)]))
    blocks = [(q1[:200], q2[:200]), (q1[200:], q2[200:]), (q2, q1)]
    monkeypatch.setattr(
        montecarlo, "q_blocks", lambda kv, N, seed, work: (work(a, b) for a, b in blocks)
    )
    counts = montecarlo.mc_pdf_Q(None, 0, seed=0)
    expected = sum(np.histogram2d(a, b, bins=(edges, edges))[0] for a, b in blocks)
    np.testing.assert_array_equal(counts, expected)
    assert counts.dtype == expected.dtype


def test_density_histogram_matches_spline():
    kv = knots.family("equispaced", 8)
    dev, kept = harness._density_vs_mc(kv, 5 * 10**5, seed=1)
    assert kept > 10
    assert dev <= 4.0


def test_density_histogram_counts_match_np_histogram(monkeypatch):
    # the per-block bincounts give the counts of np.histogram over all the
    # projections; several blocks at every n here
    N = 3 * 10**4 + 1
    for n in (5, 8, 16):
        for seed in (1, 2, 3, 4, 5, 6, 7, 8, 4507):
            kv = knots.family("uniform_random", n, seed=seed)
            edges = np.linspace(float(kv.xs[0]), float(kv.xs[-1]), 41)
            counts = montecarlo.projection_counts(kv, N, seed, edges)
            expected, _ = np.histogram(montecarlo.simplex_projection_samples(kv, N, seed), edges)
            np.testing.assert_array_equal(counts, expected)
            assert counts.dtype == expected.dtype == np.intp
    # values exactly at every edge of the last knot vector, one ulp either
    # side of it, at the last edge and outside the range land in the cells
    # np.histogram gives them
    e = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    rng = np.random.default_rng(5)
    projs = np.concatenate([e, [edges[-1]] * 5, [-7.0, 5.5, np.inf, -np.inf], rng.uniform(-1, 1, 400)])
    blocks = [projs[:200], projs[200:], rng.permutation(projs)]
    monkeypatch.setattr(
        montecarlo, "_projection_blocks", lambda kvs, N, seed, work: (work(p[None]) for p in blocks)
    )
    counts = montecarlo.projection_counts(None, 0, 0, edges)
    np.testing.assert_array_equal(counts, sum(np.histogram(p, edges)[0] for p in blocks))
    assert counts.dtype == np.intp


def test_density_histogram_needs_a_cell_with_20_draws():
    kv = knots.family("equispaced", 8)
    with pytest.raises(InsufficientData):
        harness._density_vs_mc(kv, 100, seed=1)


def _monomial_agrees(kv, proj):
    # Hermite-Genocchi at f = t^{n+1}: f^{(n-1)} / (n-1)! = (n+1) n / 2 t^2,
    # and the divided difference of t^{n+1} is h_2(x), exact from the
    # complete homogeneous sums
    L, H = splines.complete_homogeneous(kv, 2)
    est = montecarlo.estimate((kv.n + 1) * kv.n / 2 * proj**2)
    return abs(est.mean - H[2] / (1 << 2 * L)) <= 4 * est.std_error


def test_divided_difference_mc_monomial():
    kv = knots.family("uniform_random", 8, seed=5)
    proj = montecarlo.simplex_projection_samples(kv, 10**4, seed=1)
    assert _monomial_agrees(kv, proj)
    # the check rests on the draws: a sampler that returns a constant fails it
    for c in (0.0, float(proj.mean()), float(np.sqrt(np.mean(proj**2)))):
        assert not _monomial_agrees(kv, np.full_like(proj, c))


def test_divided_difference_mc_exp():
    kv = knots.family("uniform_random", 8, seed=5)
    exact = splines.exp_divided_difference(kv)
    # Hermite-Genocchi: the divided difference of f is E f^{(n-1)}(<x, S>) / (n-1)!
    proj = montecarlo.simplex_projection_samples(kv, 2 * 10**5, seed=1)
    est = montecarlo.estimate(np.exp(proj) / math.factorial(kv.n - 1))
    assert abs(est.mean - exact) <= 4 * est.std_error
