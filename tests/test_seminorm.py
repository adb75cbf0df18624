
import math

import mpmath as mp
import numpy as np
import pytest

from splinellt import knots, montecarlo, seminorm
from splinellt.errors import OrderTooHigh
from splinellt.specfun import hermite_function
from splinellt.splines import bspline_naive, bspline_stable, bspline_stable_deriv


def test_gridspec_validation():
    with pytest.raises(ValueError):
        seminorm.GridSpec(T=4.0, h=0.01)
    with pytest.raises(ValueError):
        seminorm.GridSpec(T=10.0, h=0.2)
    with pytest.raises(ValueError):
        seminorm.GridSpec(T=10.0, h=0.0)
    # T < 8 is False for NaN, and an infinite T passes it
    for T in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            seminorm.GridSpec(T=T, h=0.05)
    g = seminorm.GridSpec(T=8.0, h=0.05)
    ts = g.points()
    assert ts[0] == -8.0 and ts[-1] == pytest.approx(8.0)


@pytest.mark.parametrize("n, moved", [(16, 0), (17, 1)])
def test_points_avoiding_knot_images(n, moved):
    # at n = 17 the middle knot's image is t = 0, a grid point
    kv = knots.family("equispaced", n)
    g = seminorm.default_grid(n)
    ts = g.points_avoiding(kv)
    images = n * kv.xs
    for im in images:
        assert np.min(np.abs(ts - im)) > g.h * 1e-10
    assert np.count_nonzero(ts != g.points()) == moved
    # reference: nudge the points hit by each image in turn
    ref = g.points()
    for im in images:
        ref = np.where(np.abs(ref - im) < g.h * 1e-9, ref + g.h / 10, ref)
    np.testing.assert_array_equal(ts, ref)


def test_default_grid_extends_with_n():
    assert seminorm.default_grid(4).T == 8.0
    assert seminorm.default_grid(50).T == 50.0


def test_argmax_tie_breaks_to_small_t():
    ts = np.array([-2.0, -1.0, 0.5, 1.0, 2.0])
    diffs = np.array([3.0, 1.0, 1.0, 3.0, 0.5])
    res = seminorm._weighted_sup(ts, diffs, 0)
    assert res.value == 3.0
    assert res.argmax_t == 1.0  # -2 and 1 tie; smaller |t| wins


def test_corollary2_r0_is_theorem1():
    kv = knots.family("chebyshev", 10)
    g = seminorm.default_grid(10)
    a = seminorm.theorem1_error(kv, 1, 1, g)
    b = seminorm.corollary2_error(kv, 1, 1, 0, g)
    assert a.value == b.value
    assert a.argmax_t == b.argmax_t


@pytest.mark.parametrize("family", ["chebyshev", "uniform_random"])
@pytest.mark.parametrize("p,q,r", [(0, 0, 1), (1, 1, 1), (0, 0, 2), (2, 1, 2)])
def test_corollary2_is_theorem1_at_order_q_plus_r(family, p, q, r):
    # (-1)^r d^r/dt^r B(t/n) is the Corollary 2 comparand, so its q-th
    # t-derivative error is the Theorem 1 error at order q+r, up to sign.
    kv = knots.family(family, 12, seed=5)
    g = seminorm.default_grid(12)
    a = seminorm.theorem1_error(kv, p, q + r, g)
    b = seminorm.corollary2_error(kv, p, q, r, g)
    assert a.value == b.value
    assert a.argmax_t == b.argmax_t


def test_order_bounds():
    kv = knots.family("equispaced", 8)
    with pytest.raises(OrderTooHigh):
        seminorm.theorem1_error(kv, 0, 5, seminorm.default_grid(8))
    with pytest.raises(OrderTooHigh):
        seminorm.corollary2_error(kv, 0, 3, 2, seminorm.default_grid(8))
    with pytest.raises(ValueError):
        seminorm.theorem1_error(knots.family("equispaced", 16), 5, 4, seminorm.default_grid(16))


def test_large_n_error_small():
    kv = knots.family("equispaced", 128)
    res = seminorm.theorem1_error(kv, 0, 0, seminorm.default_grid(128))
    assert res.value <= 0.05
    assert abs(res.argmax_t) < 128


def test_tail_truncation_self_consistent():
    kv = knots.family("equispaced", 16)
    a = seminorm.theorem1_error(kv, 0, 0, seminorm.GridSpec(16.0, 0.05))
    b = seminorm.theorem1_error(kv, 0, 0, seminorm.GridSpec(32.0, 0.05))
    assert abs(a.value - b.value) < 1e-9


def test_error_profile_even_for_symmetric_knots_odd_r():
    kv = knots.family("equispaced", 12)
    ts = np.array([-2.3, -1.1, -0.4, 0.4, 1.1, 2.3])
    from splinellt.specfun import hermite_function
    from splinellt.splines import bspline_stable_deriv

    # He_1(t) phi(t) against -d/dt B(t/n) = -B'(t/n) / n
    diff = hermite_function(1, ts) + bspline_stable_deriv(kv, ts / kv.n, 1) / kv.n
    np.testing.assert_allclose(np.abs(diff), np.abs(diff[::-1]), atol=1e-12)


def test_corollary3_error_q0_matches_direct():
    from splinellt.specfun import corollary3_sum, hermite

    kv = knots.family("equispaced", 8)
    xis = (0.5, 1.0, 2.0)
    res = seminorm.corollary3_error(kv, 0, 0, 1, xis)
    direct = max(
        abs(corollary3_sum(kv, 1, x) - hermite(1, x) * np.exp(-x * x / 2)) for x in xis
    )
    assert res.value == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        seminorm.corollary3_error(kv, 0, 3, 0, xis)
    with pytest.raises(ValueError):
        seminorm.corollary3_error(kv, 0, 0, 5, xis)


@pytest.mark.parametrize("family", ["chebyshev", "uniform_random"])
@pytest.mark.parametrize("q,r", [(1, 0), (1, 1), (2, 0), (2, 2)])
def test_corollary3_xi_derivative_is_order_q_plus_r(family, q, r):
    kv = knots.family(family, 10, seed=2)
    xis = (0.1, 0.5, 1.0, 2.0, 5.0)
    res = seminorm.corollary3_error(kv, 1, q, r, xis)
    ref = seminorm.corollary3_error(kv, 1, 0, q + r, xis)
    assert (res.value, res.argmax_t) == (ref.value, ref.argmax_t)


@pytest.mark.parametrize("family", ["chebyshev", "uniform_random"])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_laguerre_sum_derivative_identity(family, r):
    # d/dxi S_r = -S_{r+1}, checked by a Richardson-extrapolated central
    # difference of the sum itself, independent of the identity
    from splinellt.specfun import corollary3_sum

    kv = knots.family(family, 10, seed=2)

    def central(xi, step):
        return (corollary3_sum(kv, r, xi + step) - corollary3_sum(kv, r, xi - step)) / (2 * step)

    h = 2e-3
    for xi in (0.5, 2.0):
        fd = (4 * central(xi, h / 2) - central(xi, h)) / 3
        assert abs(fd + corollary3_sum(kv, r + 1, xi)) <= 1e-8


def test_corollary4_noise_floor_and_validation():
    kv = knots.family("equispaced", 16)
    ((cos_res, sin_res),) = seminorm.corollary4_error([kv], 0, 0, (0.5, 1.0), 10**5, seed=3)
    assert cos_res.noise_floor > 0
    assert sin_res.value < 0.05  # symmetric knots: sin mean is pure noise + tiny bias
    with pytest.raises(ValueError):
        seminorm.corollary4_error([kv], 0, 1, (1.0,), 10**5, seed=3)
    with pytest.raises(ValueError):
        seminorm.corollary4_error([kv], 0, 0, (1.0,), 10, seed=3)


def test_corollary4_error_memory_bounded(monkeypatch, traced_peak):
    # the draws are streamed through block buffers (two sampler workers
    # pinned here); holding the N projections and an N-length estimate
    # buffer peaked at 15.3 MB at N = 1e6
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    kv = knots.family("uniform_random", 32, seed=1)
    _, peak = traced_peak(seminorm.corollary4_error, [kv], 0, 0, (0.5, 1.0, 2.0), 10**6, 1)
    assert peak <= 4e6


def _full_grid_errors(kv, ps, grid, q=0):
    # the order-q sup at each p, with B^(q)(t/n) evaluated on every grid point
    ts = grid.points_avoiding(kv)
    diffs = (-1) ** q * hermite_function(q, ts) - bspline_stable_deriv(kv, ts / kv.n, q) / kv.n**q
    return [seminorm._weighted_sup(ts, diffs, p) for p in ps]


@pytest.mark.parametrize("family", ["equispaced", "chebyshev", "uniform_random", "clustered"])
@pytest.mark.parametrize("n", [5, 8, 16, 64, 256])
@pytest.mark.parametrize("wide", [False, True])
def test_ring_sup_matches_full_grid(family, n, wide):
    kv = knots.family(family, n, seed=3)
    grid = seminorm.GridSpec(20.0, 0.01) if wide else seminorm.default_grid(n)
    ps = (0, 2, 8)
    for p, ref in zip(ps, _full_grid_errors(kv, ps, grid)):
        res = seminorm.theorem1_error(kv, p, 0, grid)
        assert (res.value, res.argmax_t) == (ref.value, ref.argmax_t)


@pytest.mark.parametrize("family", ["equispaced", "chebyshev", "uniform_random", "clustered"])
@pytest.mark.parametrize("n", [8, 16, 64, 256])
@pytest.mark.parametrize("wide", [False, True])
def test_ring_sup_matches_full_grid_at_every_order(family, n, wide):
    # B^(q) is not unimodal, but each of its rows is: the certificate on the
    # rows and on the Hermite side past sqrt(4q + 6) keeps the whole grid's
    # bits.  n = 256 takes p = 8 - q alone, and on the wide grid, where all
    # 4001 points are in the support, one q per family: the whole-grid
    # reference is the cost (5 s for the full product there)
    kv = knots.family(family, n, seed=3)
    grid = seminorm.GridSpec(20.0, 0.01) if wide else seminorm.default_grid(n)
    qs = (1, 2, 4, 8)
    if n == 256 and wide:
        qs = (qs[knots.FAMILIES.index(family)],)
    for q in qs:
        if q > n - 4:
            continue
        ps = (8 - q,) if n == 256 else sorted({0, 8 - q})
        for p, ref in zip(ps, _full_grid_errors(kv, ps, grid, q)):
            res = seminorm.theorem1_error(kv, p, q, grid)
            assert (res.value, res.argmax_t) == (ref.value, ref.argmax_t)


def test_ring_sup_matches_full_grid_n512():
    kv = knots.family("equispaced", 512)
    grid = seminorm.default_grid(512)
    res, (ref,) = seminorm.theorem1_error(kv, 0, 0, grid), _full_grid_errors(kv, (0,), grid)
    assert (res.value, res.argmax_t) == (ref.value, ref.argmax_t)


def _kernel_calls(monkeypatch):
    sizes = []
    kernel = seminorm.bspline_stable_deriv

    def spy(kv, t, q=0):
        sizes.append(np.size(t))
        return kernel(kv, t, q)

    monkeypatch.setattr(seminorm, "bspline_stable_deriv", spy)
    return sizes


@pytest.mark.parametrize(
    "p, grid, sizes",
    [(0, None, [160]), (8, None, [160, 160, 320]), (8, seminorm.GridSpec(8.0, 0.05), [160, 161])],
)
def test_ring_sup_stops_at_the_central_rings(monkeypatch, p, grid, sizes):
    # 1105 of the 10241 default-grid points at n = 256 are in the support;
    # |t| <= 4 holds the maximum at p = 0, |t| <= 16 at p = 8, and on
    # [-8, 8] the two rings are the whole grid of 321 points
    kv = knots.family("equispaced", 256)
    grid = grid or seminorm.default_grid(256)
    seen = _kernel_calls(monkeypatch)
    seminorm.theorem1_error(kv, p, 0, grid)
    assert seen == sizes


@pytest.mark.parametrize(
    "family, n, p, q, grid, sizes",
    [("equispaced", 64, 0, 1, None, [160]),
     ("equispaced", 1024, 0, 2, None, [160, 160]),
     ("equispaced", 256, 4, 4, None, [160, 160, 320]),
     ("equispaced", 256, 0, 2, seminorm.GridSpec(8.0, 0.05), [160, 161]),
     ("equispaced", 12, 0, 4, None, [160, 160]),
     ("clustered", 64, 6, 2, None, [160, 160, 320])],
    ids=["n64-q1", "n1024-q2", "n256-p4-q4", "T8-q2", "n12-q4", "clustered-p6-q2"],
)
def test_derivative_orders_stop_at_the_central_rings(monkeypatch, family, n, p, q, grid, sizes):
    # 2215 of the 40961 default-grid points at n = 1024 are in the support,
    # and on [-8, 8] the two rings are the whole grid.  At n = 12, q = 4 the
    # Hermite side is certified only past sqrt 22 > 4, so the first ring
    # cannot close; on clustered knots at (6, 2) the edge's positive rows P
    # keep the second ring open.  The rows of the certificate, four edge
    # points a ring, come from bspline_stable_terms, which the spy does not see
    kv = knots.family(family, n, seed=3)
    grid = grid or seminorm.default_grid(n)
    seen = _kernel_calls(monkeypatch)
    seminorm.theorem1_error(kv, p, q, grid)
    assert seen == sizes


def test_corollary2_stops_at_the_central_rings(monkeypatch):
    kv = knots.family("equispaced", 64)
    seen = _kernel_calls(monkeypatch)
    seminorm.corollary2_error(kv, 2, 0, 2, seminorm.default_grid(64))
    assert seen == [160, 160]


@pytest.mark.parametrize("q", range(9))
def test_hermite_side_against_mpmath(q):
    # the ring certificate's Hermite side: within 1e-13 relative of
    # He_q(t) phi(t) on sqrt(4q + 6) <= |t| <= 37 (the worst measured was
    # 5.6e-14, from the rounding of t^2 / 2 under exp), below 1e-284 in
    # magnitude up to |t| = 38.61 and exactly 0 past it, where e^{-t^2/2}
    # rounds to 0
    mid = np.linspace(math.sqrt(4 * q + 6), 37.0, 60)
    ts = np.concatenate([mid, -mid])
    got = hermite_function(q, ts)
    with mp.workdps(40):
        for t, g in zip(ts.tolist(), got.tolist()):
            x = mp.mpf(t)
            exact = mp.hermite(q, x / mp.sqrt(2)) / mp.sqrt(2) ** q * mp.npdf(x)
            assert abs(g - exact) <= 1e-13 * abs(exact)
    tail = np.linspace(37.0, 38.6, 41)
    assert np.all(np.abs(hermite_function(q, np.r_[tail, -tail])) < 1e-284)
    far = np.array([38.61, 40.0, 64.0, 1e5])
    assert np.all(hermite_function(q, np.r_[far, -far]) == 0)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_stable_kernel_within_ring_eps(n):
    # the relative error bound eps = 8 n 2^-53 the ring certificate assumes,
    # against the correctly rounded oracle on 20 points across the support
    kv = knots.family("uniform_random", n, seed=2)
    lo, hi = float(kv.xs[0]), float(kv.xs[-1])
    xs = lo + (hi - lo) * (np.arange(20) + 0.5) / 20
    stable = bspline_stable(kv, xs)
    exact = np.array([bspline_naive(kv, float(x)) for x in xs])
    assert np.all(exact > 0)
    assert np.max(np.abs(stable - exact) / exact) <= 8 * n * 2.0**-53
